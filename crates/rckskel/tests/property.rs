//! Property-based tests of the skeleton wire protocol.

use proptest::prelude::*;
use rck_skel::{wire, Job};

fn arb_job() -> impl Strategy<Value = Job> {
    (any::<u64>(), prop::collection::vec(any::<u8>(), 0..256))
        .prop_map(|(id, payload)| Job::new(id, payload))
}

proptest! {
    /// Job messages round-trip through the wire format for arbitrary ids
    /// and payloads.
    #[test]
    fn job_wire_roundtrip(job in arb_job()) {
        let decoded = wire::decode_job(wire::encode_job(&job)).expect("a job, not terminate");
        prop_assert_eq!(decoded, job);
    }

    /// Result messages round-trip for arbitrary ranks and payloads.
    #[test]
    fn result_wire_roundtrip(
        id in any::<u64>(),
        rank in 0usize..64,
        payload in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let r = wire::decode_result(rank, wire::encode_result(id, &payload));
        prop_assert_eq!(r.job_id, id);
        prop_assert_eq!(r.slave_rank, rank);
        prop_assert_eq!(r.payload, payload);
    }

    /// The terminate frame never decodes as a job, and job frames never
    /// decode as terminate.
    #[test]
    fn terminate_is_unambiguous(job in arb_job()) {
        prop_assert!(wire::decode_job(wire::encode_terminate()).is_none());
        prop_assert!(wire::decode_job(wire::encode_job(&job)).is_some());
    }

    /// Truncating an encoded job anywhere inside the frame fails loudly
    /// rather than mis-decoding (unless the cut leaves a valid prefix,
    /// which the length prefix makes impossible for jobs).
    #[test]
    fn truncated_jobs_panic(job in arb_job(), cut_frac in 0.0f64..1.0) {
        let encoded = wire::encode_job(&job);
        let cut = ((encoded.len() - 1) as f64 * cut_frac) as usize;
        prop_assume!(cut >= 1); // empty input is a different panic site
        let truncated = encoded[..cut].to_vec();
        let outcome = std::panic::catch_unwind(|| wire::decode_job(truncated));
        prop_assert!(outcome.is_err(), "truncation at {cut} must not decode");
    }
}
