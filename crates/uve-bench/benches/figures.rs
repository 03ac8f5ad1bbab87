//! `cargo bench --bench figures` regenerates every table and figure of the
//! paper's evaluation (Figs. 8–11, Sec. VI-B/VI-C). Not a Criterion
//! harness: the output *is* the artifact.
//!
//! One shared [`uve_bench::Runner`] serves every figure. Its cache keeps a
//! trace only while the current figure's job list still needs it (plus the
//! last one used), so the sensitivity sweeps emulate again the points they
//! share with Fig. 8 and with each other: 89 emulations in all, 20 more
//! than a cache that kept every trace would make. `--jobs N`/`--serial`/
//! `--quiet` are honoured.

fn main() {
    // Criterion passes `--bench`; any other non-flag argument selects a
    // subset by name.
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| {
        let filters: Vec<&String> = args
            .iter()
            .filter(|a| !a.starts_with('-') && a.parse::<usize>().is_err())
            .collect();
        filters.is_empty() || filters.iter().any(|f| name.contains(f.as_str()))
    };
    let runner = uve_bench::Runner::from_cli(&uve_bench::Cli::parse());
    if want("fig8") {
        uve_bench::figures::fig8(None, None, &runner);
    }
    if want("fig9") {
        uve_bench::figures::fig9(&runner);
    }
    if want("fig10") {
        uve_bench::figures::fig10(&runner);
    }
    if want("fig11") {
        uve_bench::figures::fig11(&runner);
    }
    if want("modules") {
        uve_bench::figures::modules(&runner);
    }
    if want("overheads") {
        uve_bench::figures::overheads();
    }
}
