//! Command-line front end for the thermal-aware scheduling suite.
//!
//! The binary (`tats`) is a thin wrapper around [`run`], which dispatches to
//! the subcommands in [`commands`]:
//!
//! ```text
//! tats tables --which table3
//! tats schedule --benchmark Bm2 --policy thermal --gantt
//! tats sweep --sizes 25,50,100
//! tats reliability --benchmark Bm1
//! tats dvs --benchmark Bm1 --policy thermal
//! tats floorplan --modules 16 --engine sa --weights thermal
//! tats batch --benchmarks all --policies all --shard 0/2 --out results.jsonl
//! tats serve --port 7070
//! tats worker --connect 127.0.0.1:7070
//! tats submit --connect 127.0.0.1:7070 --benchmarks all --shards 4 --wait
//! tats compact --connect 127.0.0.1:7070
//! tats top --connect 127.0.0.1:7070
//! tats trace spans.jsonl --chrome trace.json
//! tats export --benchmark Bm1 --format tgff
//! ```
//!
//! Every command returns its output as a string, so the whole CLI is
//! unit-testable without spawning processes.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod commands;
pub mod options;

pub use options::CliError;

use options::Options;

/// Per subcommand: the option names that take a value and the boolean
/// switches. Anything else on the command line is rejected with the full
/// accepted list (see [`Options::parse`]).
fn command_options(command: &str) -> (&'static [&'static str], &'static [&'static str]) {
    match command {
        "tables" => (&["which"], &["full"]),
        "schedule" => (&["benchmark", "policy", "arch"], &["gantt", "csv", "json"]),
        "sweep" => (&["sizes", "policy"], &[]),
        "reliability" => (&["benchmark"], &[]),
        "dvs" => (&["benchmark", "policy"], &[]),
        "grid" => (&["benchmark", "policy", "nx", "ny"], &[]),
        "floorplan" => (&["modules", "seed", "engine", "weights"], &[]),
        "batch" => (
            &[
                "benchmarks",
                "flows",
                "policies",
                "seeds",
                "grid-solver",
                "nx",
                "ny",
                "shard",
                "threads",
                "out",
            ],
            &["resume", "full", "dry-run"],
        ),
        "serve" => (
            &[
                "host",
                "port",
                "lease-ttl-ms",
                "journal",
                "access-log",
                "trace-log",
                "log-file",
                "compact-every-events",
                "client-quota",
                "max-connections",
            ],
            &["no-keep-alive"],
        ),
        "worker" => (
            &["connect", "name", "threads", "poll-ms"],
            &["exit-when-drained"],
        ),
        "submit" => (
            &[
                "connect",
                "benchmarks",
                "flows",
                "policies",
                "seeds",
                "grid-solver",
                "nx",
                "ny",
                "shards",
                "poll-ms",
                "out",
                "trace-seed",
                "client",
                "priority",
            ],
            &["full", "wait"],
        ),
        "compact" => (&["connect"], &[]),
        "top" => (&["connect", "interval-ms"], &["once"]),
        "trace" => (&["chrome"], &[]),
        "export" => (&["benchmark", "format"], &[]),
        _ => (&[], &[]),
    }
}

/// Parses the argument list (excluding the program name) and runs the
/// requested subcommand, returning its textual output.
///
/// # Errors
///
/// Returns a [`CliError`] describing the parse failure or the failed
/// computation.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), tats_cli::CliError> {
/// let out = tats_cli::run(&["export".to_string(), "--benchmark".to_string(), "Bm1".to_string()])?;
/// assert!(out.starts_with("@GRAPH Bm1"));
/// # Ok(())
/// # }
/// ```
pub fn run(args: &[String]) -> Result<String, CliError> {
    let command = args.first().ok_or(CliError::MissingCommand)?;
    let mut rest: Vec<String> = args[1..].to_vec();
    // `tats trace <spans.jsonl>` takes its input as the one positional
    // argument every other command rejects.
    let positional = if command == "trace" {
        match rest.first() {
            Some(first) if !first.starts_with("--") => Some(rest.remove(0)),
            _ => None,
        }
    } else {
        None
    };
    let (values, switches) = command_options(command);
    let options = Options::parse(&rest, values, switches)?;
    match command.as_str() {
        "help" | "--help" | "-h" => Ok(commands::help()),
        "tables" => commands::tables(&options),
        "schedule" => commands::schedule(&options),
        "sweep" => commands::sweep(&options),
        "reliability" => commands::reliability(&options),
        "dvs" => commands::dvs(&options),
        "grid" => commands::grid(&options),
        "floorplan" => commands::floorplan(&options),
        "batch" => commands::batch(&options),
        "serve" => commands::serve(&options),
        "worker" => commands::worker(&options),
        "submit" => commands::submit(&options),
        "compact" => commands::compact(&options),
        "top" => commands::top(&options),
        "trace" => commands::trace(positional.as_deref(), &options),
        "export" => commands::export(&options),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Vec<String> {
        items.iter().map(|item| item.to_string()).collect()
    }

    #[test]
    fn missing_and_unknown_commands_error() {
        assert!(matches!(run(&[]), Err(CliError::MissingCommand)));
        assert!(matches!(
            run(&args(&["frobnicate"])),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn help_runs_through_the_dispatcher() {
        let out = run(&args(&["help"])).expect("help");
        assert!(out.contains("USAGE"));
        assert!(run(&args(&["--help"])).is_ok());
    }

    #[test]
    fn export_runs_end_to_end() {
        let out = run(&args(&["export", "--benchmark", "Bm3", "--format", "dot"])).expect("export");
        assert!(out.contains("digraph"));
    }

    #[test]
    fn schedule_with_bad_policy_reports_the_value() {
        let error = run(&args(&["schedule", "--policy", "warp-speed"])).expect_err("must fail");
        assert!(error.to_string().contains("warp-speed"));
    }
}
