//! Command line of both binaries:
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--write-golden] [--smoke]`.

use crate::workload::Workload;

/// Seed used when `--seed` is absent; the committed goldens are its frames.
pub const DEFAULT_SEED: u64 = 42;
/// Timed-window length when `--seconds` is absent (`BENCHMARK.json`'s
/// `run_seconds`).
pub const DEFAULT_SECONDS: f64 = 16.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub write_golden: bool,
    /// Functional check only: one set-up, a short stage replay.
    pub smoke: bool,
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a one-line message for an unknown flag, a missing or malformed
/// value, or a missing `--workload`.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = DEFAULT_SECONDS;
    let mut trace = false;
    let mut write_golden = false;
    let mut smoke = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--write-golden" => {
                write_golden = true;
                continue;
            }
            "--smoke" => {
                smoke = true;
                continue;
            }
            _ => {}
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value (or is not a flag)"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    Ok(Args {
        workload: workload
            .ok_or_else(|| format!("--workload is required: one of {}", names.join(", ")))?,
        seed,
        seconds,
        trace,
        write_golden,
        smoke,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn driver_command_line_parses() {
        let a = parse_str("--workload serve_64 --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::Serve64,
                seed: 7,
                seconds: 20.0,
                trace: true,
                write_golden: false,
                smoke: false
            }
        );
    }

    #[test]
    fn defaults_apply() {
        let a = parse_str("--workload stream_352 --write-golden --smoke").unwrap();
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (DEFAULT_SEED, DEFAULT_SECONDS, false)
        );
        assert!(a.write_golden && a.smoke);
    }

    #[test]
    fn every_workload_name_round_trips() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload stream_352 --trace 2",
            "--workload stream_352 --seconds 0",
            "--workload stream_352 --seconds",
            "--workload stream_352 --frobnicate 1",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} should not parse");
        }
    }
}
