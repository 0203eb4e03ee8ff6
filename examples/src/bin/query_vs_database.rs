//! The paper's motivating scenario (§I + Algorithm 1): "a newly
//! discovered protein structure is typically compared with all known
//! structures in order to ascertain its functional behavior" — under
//! several comparison methods at once, with the ranked list as output.
//!
//! Run with:
//! `cargo run --release -p rckalign-examples --bin query_vs_database`

use rck_noc::NocConfig;
use rck_pdb::datasets;
use rck_tmalign::MethodKind;
use rckalign::{run_one_vs_all, Combiner, Consensus, OneVsAllOptions, PairCache};

fn main() {
    // The "database": our CK34-shaped set. The "new protein": one of the
    // globin-family members, playing the freshly solved structure.
    let chains = datasets::ck34_profile().generate(2013);
    let names: Vec<String> = chains.iter().map(|c| c.name.clone()).collect();
    let query = 3; // glob_03
    println!(
        "query {} ({} residues) vs database of {} structures",
        names[query],
        chains[query].len(),
        chains.len() - 1
    );

    let methods = vec![
        MethodKind::TmAlign,
        MethodKind::KabschRmsd,
        MethodKind::ContactMap,
    ];
    let cache = PairCache::new(chains);
    let run = run_one_vs_all(
        &cache,
        query,
        &OneVsAllOptions {
            methods: methods.clone(),
            n_slaves: 47,
            noc: NocConfig::scc(),
        },
    );
    println!(
        "{} comparisons ({} methods × {} entries) in {:.1} simulated s on 47 slaves\n",
        run.outcomes.len(),
        methods.len(),
        cache.len() - 1,
        run.makespan_secs
    );

    let consensus = Consensus::from_outcomes(cache.len(), &run.outcomes, &methods);
    println!(
        "top hits (mean-rank consensus over {} criteria):",
        methods.len()
    );
    for (idx, score) in consensus
        .ranked_neighbours(query, Combiner::MeanRank)
        .into_iter()
        .take(10)
    {
        let tm = consensus
            .matrix_for(MethodKind::TmAlign)
            .expect("tm-align ran")
            .get(query, idx);
        println!(
            "  {:10} consensus {score:.3}   TM-score {tm:.3}",
            names[idx]
        );
    }
    println!("\nall nine globin-family siblings should lead the list — the query's");
    println!("'function' is correctly inferred from structural neighbours.");
}
