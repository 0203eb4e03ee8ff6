//! Tour of the structure substrate: synthetic backbone generation, PDB
//! round-trip, geometry checks and secondary-structure assignment.
//!
//! Run with: `cargo run --release -p rckalign-examples --bin dataset_tour`

use rck_pdb::synth::{FoldTemplate, MemberVariation, SegmentSpec, SsType};
use rck_pdb::{datasets, parse_pdb, write_pdb, CaChain};
use rck_tmalign::{align::secondary_structure, secstruct};

fn main() {
    // 1. Dataset profiles.
    for profile in datasets::built_in() {
        let chains = profile.generate(2013);
        let lens: Vec<usize> = chains.iter().map(CaChain::len).collect();
        println!(
            "{}: {} chains, lengths {}–{} (mean {})",
            profile.name,
            chains.len(),
            lens.iter().min().unwrap(),
            lens.iter().max().unwrap(),
            lens.iter().sum::<usize>() / lens.len()
        );
    }

    // 2. Build a custom fold and emit it as PDB text.
    let template = FoldTemplate::generate(
        "demo",
        vec![
            SegmentSpec::new(SsType::Helix, 16),
            SegmentSpec::new(SsType::Coil, 5),
            SegmentSpec::new(SsType::Strand, 8),
            SegmentSpec::new(SsType::Coil, 4),
            SegmentSpec::new(SsType::Helix, 12),
        ],
        7,
    );
    let member = template.member(0, &MemberVariation::default(), 7);
    let pdb_text = write_pdb(&member);
    println!("\nPDB output of {} (first 6 lines):", member.name);
    for line in pdb_text.lines().take(6) {
        println!("  {line}");
    }

    // 3. Round-trip through the parser.
    let parsed = parse_pdb(&member.name, &pdb_text).expect("own output parses");
    let chain = parsed.first_chain().expect("one chain");
    println!(
        "\nparsed back: {} residues, sequence {}…",
        chain.len(),
        &chain.sequence()[..20.min(chain.len())]
    );

    // 4. CA geometry sanity + secondary structure.
    let ca = CaChain::from_chain(&member.name, chain);
    let gaps: Vec<f64> = ca.coords.windows(2).map(|w| w[0].dist(w[1])).collect();
    let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
    println!("mean CA-CA distance: {mean_gap:.2} Å (ideal trans peptide: 3.80 Å)");
    let ss = secondary_structure(&ca);
    println!(
        "assigned secondary structure:\n  {}",
        secstruct::to_string(&ss)
    );
    println!("(helix block, loop, strand block, loop, helix block — as designed)");
}
