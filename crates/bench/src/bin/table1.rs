//! Regenerates Table 1: the quantified architecture comparison.
//!
//! Usage: `cargo run --release -p presto-bench --bin table1 [days] [sensors]`

use presto_baselines::DriverConfig;
use presto_bench::json::ToJson;
use presto_bench::table1::{check_shape, generate, render, rows};

fn main() {
    let days = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let sensors = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(8);
    let cfg = DriverConfig {
        days,
        sensors,
        ..DriverConfig::default()
    };
    let reports = generate(&cfg);
    print!("{}", render(&reports));
    match check_shape(&reports) {
        Ok(()) => println!("\nshape check: OK (PRESTO: streaming-class latency, direct-class energy, PAST + prediction)"),
        Err(e) => println!("\nshape check: FAILED — {e}"),
    }
    println!("\nJSON:\n{}", rows(&reports).to_json().render());
}
