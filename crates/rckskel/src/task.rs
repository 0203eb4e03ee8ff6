//! Jobs, results, and the master–slave wire protocol.
//!
//! A *job* is the paper's application-specific unit of work (one pairwise
//! structure comparison): an opaque payload under an id. The constructs
//! in [`mod@crate::farm`] take the jobs to run as a slice.

use rck_rcce::{Reader, Writer};

/// One unit of work shipped to a slave: an opaque payload the application
/// understands, tagged with an id the master uses to match results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Application-assigned identifier (unique within a task).
    pub id: u64,
    /// Application-specific encoded work description.
    pub payload: Vec<u8>,
}

impl Job {
    /// Convenience constructor.
    pub fn new(id: u64, payload: Vec<u8>) -> Job {
        Job { id, payload }
    }
}

/// A completed job's result, as returned to the master.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobResult {
    /// The job this result answers.
    pub job_id: u64,
    /// Rank (within the communicator) of the slave that computed it.
    pub slave_rank: usize,
    /// Application-specific encoded result.
    pub payload: Vec<u8>,
}

/// Wire messages between master and slaves.
pub mod wire {
    use super::*;

    const TAG_JOB: u8 = 0;
    const TAG_TERMINATE: u8 = 1;

    /// Encode a job message.
    pub fn encode_job(job: &Job) -> Vec<u8> {
        let mut w = Writer::with_capacity(13 + job.payload.len());
        w.put_u8(TAG_JOB).put_u64(job.id).put_bytes(&job.payload);
        w.finish()
    }

    /// Encode the terminate signal.
    pub fn encode_terminate() -> Vec<u8> {
        let mut w = Writer::with_capacity(1);
        w.put_u8(TAG_TERMINATE);
        w.finish()
    }

    /// Decode a master→slave message: `Some(job)` or `None` on terminate.
    ///
    /// # Panics
    /// Panics on a malformed message — a protocol bug, not a recoverable
    /// condition.
    pub fn decode_job(data: Vec<u8>) -> Option<Job> {
        let mut r = Reader::new(data);
        match r.get_u8().expect("message tag") {
            TAG_TERMINATE => None,
            TAG_JOB => {
                let id = r.get_u64().expect("job id");
                let payload = r.get_bytes().expect("job payload");
                Some(Job { id, payload })
            }
            t => panic!("unknown master→slave tag {t}"),
        }
    }

    /// Encode a slave→master result.
    pub fn encode_result(job_id: u64, payload: &[u8]) -> Vec<u8> {
        let mut w = Writer::with_capacity(12 + payload.len());
        w.put_u64(job_id).put_bytes(payload);
        w.finish()
    }

    /// Decode a slave→master result (rank is supplied by the receive).
    pub fn decode_result(slave_rank: usize, data: Vec<u8>) -> JobResult {
        let mut r = Reader::new(data);
        let job_id = r.get_u64().expect("result job id");
        let payload = r.get_bytes().expect("result payload");
        JobResult {
            job_id,
            slave_rank,
            payload,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_wire_roundtrip() {
        let j = Job::new(42, vec![1, 2, 3]);
        let decoded = wire::decode_job(wire::encode_job(&j)).unwrap();
        assert_eq!(decoded, j);
    }

    #[test]
    fn terminate_roundtrip() {
        assert_eq!(wire::decode_job(wire::encode_terminate()), None);
    }

    #[test]
    fn result_wire_roundtrip() {
        let r = wire::decode_result(3, wire::encode_result(7, &[9, 9]));
        assert_eq!(
            r,
            JobResult {
                job_id: 7,
                slave_rank: 3,
                payload: vec![9, 9]
            }
        );
    }

    #[test]
    #[should_panic(expected = "unknown master→slave tag")]
    fn bad_tag_panics() {
        let _ = wire::decode_job(vec![99]);
    }
}
