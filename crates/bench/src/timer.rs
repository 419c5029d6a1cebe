//! The one wall-clock timer the stage benchmarks (`benches/`) and the
//! overhead binaries share.
//!
//! [`bench()`] times a closure [`SAMPLES`] times after one warm-up run and
//! prints the median ns/iter, plus ns/element when the caller names how
//! many elements one iteration processes. [`bench_batched`] adds an
//! untimed setup that builds each iteration's input.

use std::hint::black_box;
use std::time::Instant;

/// Timed runs per benchmark.
pub const SAMPLES: usize = 10;

/// Median of `xs` (mean of the middle two for an even count). Panics on
/// an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Time `routine` and print `name`'s median ns/iter; with `elements`,
/// also ns per element.
pub fn bench<O>(name: &str, elements: Option<u64>, mut routine: impl FnMut() -> O) {
    bench_batched(name, elements, || (), |()| routine());
}

/// [`bench()`] with an untimed `setup` that builds each run's input.
pub fn bench_batched<I, O>(
    name: &str,
    elements: Option<u64>,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> O,
) {
    black_box(routine(setup()));
    let ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(black_box(input)));
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    let m = median(&ns);
    match elements {
        Some(n) => println!(
            "{name:<48} {m:>14.0} ns/iter {:>10.1} ns/element ({n} elements)",
            m / n.max(1) as f64
        ),
        None => println!("{name:<48} {m:>14.0} ns/iter"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn setup_runs_untimed_once_per_sample_plus_warm_up() {
        let mut setups = 0;
        let mut runs = 0;
        bench_batched(
            "test/setup",
            Some(4),
            || {
                setups += 1;
                vec![0u8; 4]
            },
            |v| {
                runs += 1;
                v.len()
            },
        );
        assert_eq!((setups, runs), (SAMPLES + 1, SAMPLES + 1));
    }
}
