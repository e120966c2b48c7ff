//! Command-line option parsing.
//!
//! The CLI keeps its dependency footprint at zero by hand-rolling a small
//! `--flag value` parser.  Options may be given as `--key value` or
//! `--key=value`; bare `--switch` flags are boolean.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::ops::RangeInclusive;
use std::str::FromStr;

use tats_core::{Policy, PowerHeuristic};
use tats_taskgraph::Benchmark;
use tats_thermal::GridSolver;

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq)]
pub enum CliError {
    /// No subcommand was given.
    MissingCommand,
    /// The subcommand is not recognised.
    UnknownCommand(String),
    /// An option is not recognised by the subcommand; carries the options
    /// the subcommand does accept so the error is self-explanatory.
    UnknownOption {
        /// The offending argument as given.
        option: String,
        /// Every option the subcommand accepts (`--` prefixed, sorted).
        accepted: Vec<String>,
    },
    /// An option that requires a value was given without one.
    MissingValue(String),
    /// An option value could not be interpreted.
    InvalidValue {
        /// Option name.
        option: String,
        /// The offending value.
        value: String,
        /// What would have been accepted.
        expected: String,
    },
    /// A downstream computation failed.
    Execution(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no command given; try 'tats help'"),
            CliError::UnknownCommand(cmd) => write!(f, "unknown command '{cmd}'; try 'tats help'"),
            CliError::UnknownOption { option, accepted } => {
                if accepted.is_empty() {
                    write!(
                        f,
                        "unknown option '{option}'; this command takes no options"
                    )
                } else {
                    write!(
                        f,
                        "unknown option '{option}'; accepted options: {}",
                        accepted.join(", ")
                    )
                }
            }
            CliError::MissingValue(opt) => write!(f, "option '{opt}' requires a value"),
            CliError::InvalidValue {
                option,
                value,
                expected,
            } => write!(f, "option '{option}' got '{value}', expected {expected}"),
            CliError::Execution(message) => write!(f, "{message}"),
        }
    }
}

impl Error for CliError {}

/// Parsed options of one subcommand invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Options {
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Options {
    /// Parses `--key value`, `--key=value` and bare `--switch` arguments.
    ///
    /// `known_values` lists options that take a value, `known_switches` the
    /// boolean flags; anything else — a positional argument, a misspelled
    /// option, a `--switch=value` — errors with the full accepted-option
    /// list, so a typo never silently becomes an ignored switch.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::MissingValue`] when a value option ends the
    /// argument list and [`CliError::UnknownOption`] (naming every accepted
    /// option) otherwise.
    pub fn parse(
        args: &[String],
        known_values: &[&str],
        known_switches: &[&str],
    ) -> Result<Self, CliError> {
        let unknown = |arg: &str| {
            let mut accepted: Vec<String> = known_values
                .iter()
                .chain(known_switches)
                .map(|name| format!("--{name}"))
                .collect();
            accepted.sort();
            CliError::UnknownOption {
                option: arg.to_string(),
                accepted,
            }
        };
        let mut options = Options::default();
        let mut index = 0;
        while index < args.len() {
            let arg = &args[index];
            let Some(name_part) = arg.strip_prefix("--") else {
                return Err(unknown(arg));
            };
            if let Some((name, value)) = name_part.split_once('=') {
                if !known_values.contains(&name) {
                    return Err(unknown(arg));
                }
                options.values.insert(name.to_string(), value.to_string());
            } else if known_values.contains(&name_part) {
                index += 1;
                let value = args
                    .get(index)
                    .ok_or_else(|| CliError::MissingValue(arg.clone()))?;
                options.values.insert(name_part.to_string(), value.clone());
            } else if known_switches.contains(&name_part) {
                options.switches.push(name_part.to_string());
            } else {
                return Err(unknown(arg));
            }
            index += 1;
        }
        Ok(options)
    }

    /// Returns the value of an option, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Returns the value of an option or a default.
    pub fn value_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.value(name).unwrap_or(default)
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|switch| switch == name)
    }

    /// Parses an integer option that must lie in `range`.
    ///
    /// Only plain decimal integers parse: a fraction (`2.9`), an exponent
    /// (`1e10`), `inf` or a value outside `range` is an error, never a
    /// truncated or saturated number.
    ///
    /// # Errors
    ///
    /// Returns [`CliError::InvalidValue`] naming the accepted range.
    pub fn integer<T>(
        &self,
        name: &str,
        default: T,
        range: RangeInclusive<T>,
    ) -> Result<T, CliError>
    where
        T: FromStr + PartialOrd + fmt::Display,
    {
        let Some(text) = self.value(name) else {
            return Ok(default);
        };
        match text.parse::<T>() {
            Ok(value) if range.contains(&value) => Ok(value),
            _ => Err(CliError::InvalidValue {
                option: name.to_string(),
                value: text.to_string(),
                expected: format!("an integer from {} to {}", range.start(), range.end()),
            }),
        }
    }

    /// Parses a comma-separated list of integers that must each lie in
    /// `range`, under the same rules as [`Options::integer`].
    ///
    /// # Errors
    ///
    /// Returns [`CliError::InvalidValue`] naming the first bad entry and the
    /// accepted range.
    pub fn integer_list<T>(
        &self,
        name: &str,
        default: &[T],
        range: RangeInclusive<T>,
    ) -> Result<Vec<T>, CliError>
    where
        T: FromStr + PartialOrd + fmt::Display + Clone,
    {
        let Some(text) = self.value(name) else {
            return Ok(default.to_vec());
        };
        text.split(',')
            .map(|item| match item.trim().parse::<T>() {
                Ok(value) if range.contains(&value) => Ok(value),
                _ => Err(CliError::InvalidValue {
                    option: name.to_string(),
                    value: item.to_string(),
                    expected: format!(
                        "a comma-separated list of integers from {} to {}",
                        range.start(),
                        range.end()
                    ),
                }),
            })
            .collect()
    }
}

/// Parses a benchmark name (`Bm1`–`Bm4`, case-insensitive).
///
/// # Errors
///
/// Returns [`CliError::InvalidValue`] for unknown names.
pub fn parse_benchmark(name: &str) -> Result<Benchmark, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "bm1" => Ok(Benchmark::Bm1),
        "bm2" => Ok(Benchmark::Bm2),
        "bm3" => Ok(Benchmark::Bm3),
        "bm4" => Ok(Benchmark::Bm4),
        _ => Err(CliError::InvalidValue {
            option: "benchmark".to_string(),
            value: name.to_string(),
            expected: "one of Bm1, Bm2, Bm3, Bm4".to_string(),
        }),
    }
}

/// Parses a grid-solver name through [`GridSolver::parse`]: `cholesky` is
/// the only grid solver, and the names of removed ones are refused.
///
/// # Errors
///
/// Returns [`CliError::InvalidValue`] for any other name.
pub fn parse_grid_solver(name: &str) -> Result<GridSolver, CliError> {
    GridSolver::parse(name).map_err(|_| CliError::InvalidValue {
        option: "grid-solver".to_string(),
        value: name.to_string(),
        expected: "cholesky, the only grid solver".to_string(),
    })
}

/// Parses a comma-separated benchmark list; `all` selects every benchmark.
///
/// # Errors
///
/// Returns [`CliError::InvalidValue`] for unknown names.
pub fn parse_benchmark_list(text: &str) -> Result<Vec<Benchmark>, CliError> {
    if text.eq_ignore_ascii_case("all") {
        return Ok(Benchmark::ALL.to_vec());
    }
    text.split(',')
        .map(|item| parse_benchmark(item.trim()))
        .collect()
}

/// Parses a comma-separated policy list; `all` selects every policy in
/// table order.
///
/// # Errors
///
/// Returns [`CliError::InvalidValue`] for unknown names.
pub fn parse_policy_list(text: &str) -> Result<Vec<Policy>, CliError> {
    if text.eq_ignore_ascii_case("all") {
        return Ok(Policy::ALL.to_vec());
    }
    text.split(',')
        .map(|item| parse_policy(item.trim()))
        .collect()
}

/// Parses a scheduling policy name.
///
/// Accepted spellings: `baseline`, `power1`/`h1`, `power2`/`h2`,
/// `power3`/`h3`, `thermal`.
///
/// # Errors
///
/// Returns [`CliError::InvalidValue`] for unknown names.
pub fn parse_policy(name: &str) -> Result<Policy, CliError> {
    match name.to_ascii_lowercase().as_str() {
        "baseline" => Ok(Policy::Baseline),
        "power1" | "h1" => Ok(Policy::PowerAware(PowerHeuristic::MinTaskPower)),
        "power2" | "h2" => Ok(Policy::PowerAware(
            PowerHeuristic::MinCumulativeAveragePower,
        )),
        "power3" | "h3" => Ok(Policy::PowerAware(PowerHeuristic::MinTaskEnergy)),
        "thermal" | "thermal-aware" => Ok(Policy::ThermalAware),
        _ => Err(CliError::InvalidValue {
            option: "policy".to_string(),
            value: name.to_string(),
            expected: "baseline, power1, power2, power3 or thermal".to_string(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Vec<String> {
        items.iter().map(|item| item.to_string()).collect()
    }

    #[test]
    fn parses_values_switches_and_equals_form() {
        let options = Options::parse(
            &args(&["--benchmark", "Bm2", "--policy=thermal", "--gantt"]),
            &["benchmark", "policy"],
            &["gantt", "csv"],
        )
        .expect("parse");
        assert_eq!(options.value("benchmark"), Some("Bm2"));
        assert_eq!(options.value("policy"), Some("thermal"));
        assert!(options.switch("gantt"));
        assert!(!options.switch("csv"));
        assert_eq!(options.value_or("missing", "dflt"), "dflt");
    }

    #[test]
    fn missing_value_and_positional_arguments_error() {
        assert!(matches!(
            Options::parse(&args(&["--benchmark"]), &["benchmark"], &[]),
            Err(CliError::MissingValue(_))
        ));
        assert!(matches!(
            Options::parse(&args(&["positional"]), &[], &[]),
            Err(CliError::UnknownOption { .. })
        ));
    }

    #[test]
    fn unknown_options_list_what_the_command_accepts() {
        let error = Options::parse(
            &args(&["--benchmrk", "Bm2"]),
            &["benchmark", "policy"],
            &["gantt"],
        )
        .expect_err("misspelled option must error");
        let text = error.to_string();
        assert!(text.contains("--benchmrk"), "{text}");
        assert!(text.contains("--benchmark"), "{text}");
        assert!(text.contains("--policy"), "{text}");
        assert!(text.contains("--gantt"), "{text}");
        // An unknown --switch=value form errors too.
        assert!(matches!(
            Options::parse(&args(&["--gantt=yes"]), &["benchmark"], &["gantt"]),
            Err(CliError::UnknownOption { .. })
        ));
        // A command without options says so.
        let bare = Options::parse(&args(&["--anything"]), &[], &[]).expect_err("no options");
        assert!(bare.to_string().contains("takes no options"));
    }

    #[test]
    fn numeric_and_list_options_parse() {
        let options = Options::parse(
            &args(&["--scale", "25", "--sizes", "10, 20,30", "--seeds", "0,4"]),
            &["scale", "sizes", "seeds"],
            &[],
        )
        .expect("parse");
        assert_eq!(options.integer("scale", 1u16, 0..=u16::MAX), Ok(25));
        assert_eq!(options.integer("missing", 7u64, 0..=u64::MAX), Ok(7));
        // Out of range for the option, not just for the type.
        assert!(options.integer("scale", 1usize, 1..=24).is_err());
        assert_eq!(
            options.integer_list("sizes", &[1usize], 2..=4000),
            Ok(vec![10, 20, 30])
        );
        assert_eq!(
            options.integer_list("missing", &[5usize], 2..=4000),
            Ok(vec![5])
        );
        assert_eq!(
            options.integer_list("seeds", &[0u64], 0..=1 << 53),
            Ok(vec![0, 4])
        );
        assert_eq!(
            options.integer_list("missing", &[9u64], 0..=1 << 53),
            Ok(vec![9])
        );
        for text in ["fast", "2.9", "1e3", "inf", "-1", "70000"] {
            let bad = Options::parse(&args(&["--scale", text]), &["scale"], &[]).expect("parse");
            assert!(bad.integer("scale", 1u16, 0..=u16::MAX).is_err(), "{text}");
            assert!(
                bad.integer_list("scale", &[1u16], 0..=u16::MAX).is_err(),
                "{text}"
            );
        }
        // Every entry is range-checked, not just the first: 2^53 + 1 would
        // round to 2^53 in a JSON number, and 1e8 tasks would exhaust memory.
        for (name, text, range) in [
            ("seeds", "0,9007199254740993", 0..=(1u64 << 53) - 1),
            ("sizes", "10,100000000", 2..=4000),
            ("sizes", "1", 2..=4000),
        ] {
            let option = format!("--{name}");
            let bad = Options::parse(&args(&[&option, text]), &[name], &[]).expect("parse");
            let max = *range.end();
            match bad.integer_list(name, &[0u64], range) {
                Err(CliError::InvalidValue {
                    value, expected, ..
                }) => {
                    assert!(text.ends_with(&value), "{value}");
                    assert!(expected.contains(&max.to_string()), "{expected}");
                }
                other => panic!("{name} {text}: {other:?}"),
            }
        }
    }

    #[test]
    fn benchmark_and_policy_lists_parse() {
        assert_eq!(parse_benchmark_list("all").expect("all").len(), 4);
        assert_eq!(
            parse_benchmark_list("bm1, bm3").expect("list"),
            vec![Benchmark::Bm1, Benchmark::Bm3]
        );
        assert!(parse_benchmark_list("bm1,bm9").is_err());
        assert_eq!(parse_policy_list("all").expect("all").len(), 5);
        assert_eq!(
            parse_policy_list("baseline,thermal").expect("list"),
            vec![Policy::Baseline, Policy::ThermalAware]
        );
        assert!(parse_policy_list("warp").is_err());
    }

    #[test]
    fn grid_solver_names_parse() {
        assert_eq!(
            parse_grid_solver("cholesky").expect("ok"),
            GridSolver::BandedCholesky
        );
        assert_eq!(
            parse_grid_solver(GridSolver::BandedCholesky.name()).expect("round trip"),
            GridSolver::BandedCholesky
        );
        // The removed solvers are refused with the value named, never
        // mapped onto Cholesky.
        for removed in [
            "gauss-seidel",
            "gs",
            "pcg",
            "pcg-jacobi",
            "PCG",
            "multigrid",
        ] {
            let error = parse_grid_solver(removed).expect_err(removed);
            assert!(
                matches!(&error, CliError::InvalidValue { value, .. } if value == removed),
                "{error:?}"
            );
            let text = error.to_string();
            assert!(text.contains("cholesky, the only grid solver"), "{text}");
        }
    }

    #[test]
    fn benchmark_and_policy_names_parse() {
        assert_eq!(parse_benchmark("bm3").expect("ok"), Benchmark::Bm3);
        assert!(parse_benchmark("bm9").is_err());
        assert_eq!(parse_policy("thermal").expect("ok"), Policy::ThermalAware);
        assert_eq!(
            parse_policy("h3").expect("ok"),
            Policy::PowerAware(PowerHeuristic::MinTaskEnergy)
        );
        assert!(parse_policy("fastest").is_err());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(CliError::MissingCommand.to_string().contains("help"));
        assert!(CliError::UnknownCommand("x".into())
            .to_string()
            .contains('x'));
        assert!(CliError::InvalidValue {
            option: "policy".into(),
            value: "zzz".into(),
            expected: "thermal".into()
        }
        .to_string()
        .contains("zzz"));
    }
}
