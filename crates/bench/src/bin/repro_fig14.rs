//! Reproduces paper Fig. 14: least-squares FB error vs SNR under Gaussian
//! and "real" noise.
//!
//! Exits nonzero when a Gaussian-noise median error exceeds the paper's
//! bound ([`fig14::median_bound_hz`]: 120 Hz, 180 Hz at −25 dB).
use softlora::fb_estimator::FbMethod;
use softlora_bench::experiments::fig14;
use softlora_bench::table::Table;

fn main() {
    println!("Fig. 14 — LS FB estimation error vs SNR (matched-filter solver, 9 trials)\n");
    let snrs = fig14::paper_snrs();
    let gauss = fig14::run(&snrs, false, 9, FbMethod::MatchedFilter);
    let real = fig14::run(&snrs, true, 9, FbMethod::MatchedFilter);
    let mut t = Table::new([
        "SNR(dB)",
        "Gauss median(Hz)",
        "Gauss mean(Hz)",
        "Real median(Hz)",
        "Real mean(Hz)",
    ]);
    for (g, r) in gauss.iter().zip(real.iter()) {
        t.row([
            format!("{:.0}", g.snr_db),
            format!("{:.0}", g.median_error_hz),
            format!("{:.0}", g.mean_error_hz),
            format!("{:.0}", r.median_error_hz),
            format!("{:.0}", r.mean_error_hz),
        ]);
    }
    println!("{t}");
    println!("Paper bound: {} Hz (0.14 ppm) down to −25 dB.", fig14::PAPER_BOUND_HZ);
    let out_of_bound: Vec<_> =
        gauss.iter().filter(|p| p.median_error_hz >= fig14::median_bound_hz(p.snr_db)).collect();
    println!();
    println!("Paper-faithful DE solver at selected SNRs (3 trials — slower):");
    let de = fig14::run(&[-10.0, 0.0, 10.0], false, 3, FbMethod::DifferentialEvolution);
    let mut t2 = Table::new(["SNR(dB)", "DE median(Hz)"]);
    for p in &de {
        t2.row([format!("{:.0}", p.snr_db), format!("{:.0}", p.median_error_hz)]);
    }
    println!("{t2}");
    if !out_of_bound.is_empty() {
        for p in &out_of_bound {
            eprintln!(
                "FAIL: {:.0} dB Gaussian median {:.0} Hz, bound {:.0} Hz",
                p.snr_db,
                p.median_error_hz,
                fig14::median_bound_hz(p.snr_db)
            );
        }
        std::process::exit(1);
    }
}
