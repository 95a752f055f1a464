//! Prints the full experiment table (E1–E10): the paper's claim next to
//! the measured verdict for every figure and theorem.
//!
//! Usage: `cargo run -p duop-experiments --bin experiments [--quick] [--threads N]
//! [--no-decompose] [--no-prelint] [--no-saturate] [--no-ladder] [--deadline MS]`
//!
//! `--threads N` fans the corpus experiments (E7–E9, E11, E13, E14) out
//! over N worker threads (0 = all hardware threads). The reported numbers
//! are identical to the serial run. The remaining flags build the one
//! [`SearchConfig`] every checker of E1–E18 and E20 starts from (E13,
//! E15, E17 and E20 pin the stages they measure on top of it; E19, E21
//! and E22 compare the shard pool and the serve session against the
//! default pipeline). `--no-decompose` disables the search planner's
//! conflict-graph decomposition (ablation; the verdicts must not change).
//! `--no-prelint` likewise disables the polynomial lint prefilter
//! (ablation; same contract), and `--no-saturate` the certifying
//! must-precede saturation pass (ablation; saturation is sound, so no
//! verdict may change — though E20's agreement sweep runs it explicitly
//! regardless). `--deadline MS` bounds every serialization search by a
//! wall-clock deadline; searches that run out report `unknown (deadline
//! ...)` and the affected experiment fails rather than hangs.
//! `--no-ladder` disables the budget-exhaustion degradation ladder
//! (ablation; the ladder is sound, so no decided verdict may change).

use duop_core::SearchConfig;
use duop_experiments::runner::run_all_with;
use duop_history::render::render_lanes;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    // Hidden worker mode: E19's coordinator re-executes this binary as a
    // shard worker. Must run before anything prints to stdout — the
    // worker's stdout is the wire.
    if args.get(1).map(String::as_str) == Some("shard-worker") {
        std::process::exit(duop_shard::worker_main());
    }
    if let Ok(exe) = std::env::current_exe() {
        duop_experiments::runner::set_shard_worker_cmd(vec![
            exe.to_string_lossy().into_owned(),
            "shard-worker".to_owned(),
        ]);
    }
    let flag = |name: &str| args.iter().any(|a| a == name);
    let quick = flag("--quick");
    let mut base = SearchConfig {
        decompose: !flag("--no-decompose"),
        prelint: !flag("--no-prelint"),
        saturate: !flag("--no-saturate"),
        ladder: !flag("--no-ladder"),
        ..SearchConfig::default()
    };
    let mut threads = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--threads" || a == "-j" {
            let n: usize = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--threads needs a number");
                std::process::exit(2);
            });
            threads = if n == 0 {
                duop_core::available_threads()
            } else {
                n
            };
        }
        if a == "--deadline" {
            let ms: u64 = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                eprintln!("--deadline needs milliseconds");
                std::process::exit(2);
            });
            base.deadline = Some(std::time::Duration::from_millis(ms));
        }
    }

    println!("Reproduction of \"Safety of Deferred Update in Transactional Memory\"");
    println!("(Attiya, Hans, Kuznetsov, Ravi; ICDCS 2013)\n");

    println!("== The paper's figures ==\n");
    for (name, h) in duop_experiments::figures::all_figures() {
        println!("{name}:");
        print!("{}", render_lanes(&h));
        println!();
    }
    println!("Figure 2 (prefix with 3 readers):");
    print!(
        "{}",
        render_lanes(&duop_experiments::figures::fig2_prefix(3))
    );
    println!();

    println!("== Experiments ==\n");
    let results = run_all_with(quick, threads, &base);
    let mut failures = 0;
    for r in &results {
        println!(
            "[{}] {} — {}",
            r.id,
            r.title,
            if r.pass { "PASS" } else { "FAIL" }
        );
        println!("    paper:    {}", r.claim);
        println!("    measured: {}", r.measured);
        println!();
        if !r.pass {
            failures += 1;
        }
    }
    println!(
        "{}/{} experiments confirm the paper's claims",
        results.len() - failures,
        results.len()
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
