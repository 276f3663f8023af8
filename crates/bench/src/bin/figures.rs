//! Regenerates the data behind every figure of the VoroNet evaluation.
//!
//! ```text
//! cargo run -p voronet-bench --release --bin figures -- all
//! cargo run -p voronet-bench --release --bin figures -- fig6 --objects 300000 --pairs 100000
//! cargo run -p voronet-bench --release --bin figures -- fig5 --paper
//! ```
//!
//! Output: aligned tables on stdout and CSV files under `results/`.

use std::fs;
use std::path::PathBuf;
use voronet_bench::{
    run_ablation_kleinberg, run_ablation_maintenance, run_fig5, run_fig6, run_fig7, run_fig8,
    ExperimentScale,
};
use voronet_stats::{series_to_csv, series_to_table, Series};

struct Options {
    figures: Vec<String>,
    scale: ExperimentScale,
    out_dir: PathBuf,
}

/// A flag's integer value: the next argument, parsed.
fn int_value<T: std::str::FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> Result<T, String> {
    args.next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} requires an integer"))
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut figures = Vec::new();
    let mut scale = ExperimentScale::quick();
    let (mut objects, mut pairs, mut seed) = (None, None, None);
    let mut out_dir = PathBuf::from("results");
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "fig5" | "fig6" | "fig7" | "fig8" | "ablations" | "all" => figures.push(arg),
            "--paper" => scale = ExperimentScale::paper(),
            "--quick" => scale = ExperimentScale::quick(),
            "--smoke" => scale = ExperimentScale::smoke(),
            "--objects" => objects = Some(int_value(&mut args, "--objects")?),
            "--pairs" => pairs = Some(int_value(&mut args, "--pairs")?),
            "--seed" => seed = Some(int_value(&mut args, "--seed")?),
            "--out" => {
                out_dir = PathBuf::from(args.next().ok_or("--out requires a path")?);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    // The preset first, the explicit overrides on top of it, whatever
    // order they came in: `--seed 7 --paper` runs seed 7.
    if let Some(n) = objects {
        scale = scale.with_objects(n);
    }
    if let Some(n) = pairs {
        scale = scale.with_pairs(n);
    }
    if let Some(s) = seed {
        scale.seed = s;
    }
    if figures.is_empty() {
        figures.push("all".to_string());
    }
    Ok(Options {
        figures,
        scale,
        out_dir,
    })
}

fn wants(opts: &Options, name: &str) -> bool {
    opts.figures.iter().any(|f| f == name || f == "all")
}

fn save(opts: &Options, name: &str, content: &str) {
    let path = opts.out_dir.join(name);
    if let Err(e) = fs::write(&path, content) {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else {
        println!("  wrote {}", path.display());
    }
}

fn print_series(title: &str, series: &[Series]) {
    println!("\n=== {title} ===");
    print!("{}", series_to_table(series));
}

fn main() {
    let opts = parse_args(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}");
        eprintln!(
            "usage: figures [fig5|fig6|fig7|fig8|ablations|all]* \
             [--paper|--quick|--smoke] [--objects N] [--pairs N] [--seed S] [--out DIR]"
        );
        std::process::exit(2);
    });
    let _ = fs::create_dir_all(&opts.out_dir);
    println!(
        "VoroNet figure harness: {} objects, {} route pairs, seed {}",
        opts.scale.objects, opts.scale.pairs, opts.scale.seed
    );

    if wants(&opts, "fig5") {
        println!("\nrunning Figure 5 (Voronoi out-degree distribution)...");
        let out = run_fig5(opts.scale);
        for (label, hist) in &out.histograms {
            println!("\n=== Figure 5: |vn(o)| distribution, {label} ===");
            println!("{:>10} {:>12}", "out-degree", "objects");
            for (deg, count) in hist.dense_rows() {
                println!("{deg:>10} {count:>12}");
            }
            println!(
                "mean {:.3}  mode {}  p99 {}",
                hist.mean(),
                hist.mode().unwrap_or(0),
                hist.quantile(0.99).unwrap_or(0)
            );
            let csv: String = std::iter::once("degree,count\n".to_string())
                .chain(
                    hist.dense_rows()
                        .into_iter()
                        .map(|(d, c)| format!("{d},{c}\n")),
                )
                .collect();
            save(
                &opts,
                &format!("fig5_{}.csv", label.replace([' ', '='], "_")),
                &csv,
            );
        }
    }

    let mut fig6_series: Option<Vec<Series>> = None;
    if wants(&opts, "fig6") || wants(&opts, "fig7") {
        println!("\nrunning Figure 6 (route length vs overlay size, 4 distributions)...");
        let series = run_fig6(opts.scale);
        print_series("Figure 6: mean route length vs overlay size", &series);
        save(&opts, "fig6_route_length.csv", &series_to_csv(&series));
        fig6_series = Some(series);
    }

    if wants(&opts, "fig7") {
        let fig6 = fig6_series
            .as_ref()
            .expect("figure 7 is derived from figure 6");
        println!("\nderiving Figure 7 (log H vs log log N)...");
        let fig7 = run_fig7(fig6);
        let transformed: Vec<Series> = fig7.iter().map(|(s, _)| s.clone()).collect();
        print_series("Figure 7: log(hops) vs log(log(objects))", &transformed);
        println!("\nfitted slopes (paper reports x ~= 2):");
        for (s, fit) in &fig7 {
            match fit {
                Some(f) => println!(
                    "  {:<22} slope {:.3}  r^2 {:.3}",
                    s.label, f.slope, f.r_squared
                ),
                None => println!("  {:<22} not enough points to fit", s.label),
            }
        }
        save(&opts, "fig7_loglog.csv", &series_to_csv(&transformed));
    }

    if wants(&opts, "fig8") {
        println!("\nrunning Figure 8 (route length vs number of long links)...");
        let series = run_fig8(opts.scale);
        print_series(
            "Figure 8: mean route length vs long links per object",
            &series,
        );
        save(&opts, "fig8_long_links.csv", &series_to_csv(&series));
    }

    if wants(&opts, "ablations") {
        println!("\nrunning ablations (not in the paper)...");
        let k = run_ablation_kleinberg(opts.scale);
        print_series("Ablation: VoroNet vs Kleinberg grid", &k);
        save(&opts, "ablation_kleinberg.csv", &series_to_csv(&k));
        let m = run_ablation_maintenance(opts.scale);
        print_series("Ablation: per-operation maintenance messages", &m);
        save(&opts, "ablation_maintenance.csv", &series_to_csv(&m));
    }

    println!("\ndone.");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Options {
        parse_args(line.split_whitespace().map(String::from)).expect("valid arguments")
    }

    #[test]
    fn overrides_apply_on_top_of_the_preset_in_either_order() {
        for line in [
            "fig6 --seed 7 --objects 600 --pairs 50 --paper",
            "fig6 --paper --seed 7 --objects 600 --pairs 50",
        ] {
            let opts = parse(line);
            assert_eq!(opts.figures, ["fig6"], "{line}");
            let s = opts.scale;
            assert_eq!((s.objects, s.pairs, s.seed), (600, 50, 7), "{line}");
            // What no flag overrode comes from the preset.
            assert_eq!(s.samples, ExperimentScale::paper().samples, "{line}");
        }
    }

    #[test]
    fn defaults_and_errors() {
        let opts = parse("");
        assert_eq!(opts.figures, ["all"]);
        assert_eq!(opts.scale.objects, ExperimentScale::quick().objects);
        assert_eq!(opts.out_dir, PathBuf::from("results"));
        let err = |line: &str| parse_args(line.split_whitespace().map(String::from)).err();
        assert_eq!(err("--bogus").as_deref(), Some("unknown argument: --bogus"));
        assert!(err("--objects many").is_some());
        assert!(err("--out").is_some());
    }
}
