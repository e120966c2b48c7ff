//! The fleet console: the one renderer of the operator's view of a running
//! service. `tats top` fetches the JSON behind it over HTTP and prints
//! [`frame`]; `GET /dashboard` builds the same inputs from the registry
//! and serves the frame inside a `<pre>`; `tats submit --wait` prints
//! [`progress_line`]. A column added here shows up on all three.
//!
//! Every input is a wire object the service already serves, so the
//! console reads nothing a client could not:
//!
//! * a job row reads `job`, `state`, `done`, `total`, `records_per_sec`
//!   and `eta_s` of that job's `GET /jobs/{id}/progress` object;
//! * the fleet line's slowest engine phase reads a `phases` array, which
//!   is the same fleet-wide array in every progress object;
//! * a worker row reads `name`, `status`, `records`, `records_per_sec` and
//!   `last_seen_age_ms` of one `GET /workers` row;
//! * the log section is the last lines of `GET /logs` and the ring's next
//!   index.
//!
//! The frame is plain text with no ANSI escapes: `tats top`'s live view
//! adds only its repaint prefix, so `tats top --once` prints one frame
//! byte for byte.

use std::fmt::Write as _;

use tats_trace::JsonValue;

/// Lines of server log tail a frame shows.
pub const LOG_TAIL: usize = 12;

/// ETAs beyond this horizon (30 days, in seconds) are noise, not a
/// forecast: a throughput that rounds to zero divides into an absurd
/// number that would still be printed as if it meant something.
const ETA_CLAMP_S: f64 = 30.0 * 24.0 * 3_600.0;

/// Renders a progress `eta_s` field. Missing, non-finite, negative and
/// over-horizon values all collapse to `--` instead of a nonsense number.
fn format_eta(eta_s: Option<f64>) -> String {
    match eta_s {
        Some(eta) if eta.is_finite() && (0.0..=ETA_CLAMP_S).contains(&eta) => format!("{eta:.0}s"),
        _ => "--".to_string(),
    }
}

/// The engine phase with the worst p99 in a `phases` array, as
/// `(phase, p50_us, p99_us)`.
fn slowest_phase(phases: &[JsonValue]) -> Option<(&str, u64, u64)> {
    phases
        .iter()
        .filter_map(|entry| {
            Some((
                entry.get("phase")?.as_str()?,
                entry.get("p50_us")?.as_u64()?,
                entry.get("p99_us")?.as_u64()?,
            ))
        })
        .max_by_key(|&(_, _, p99_us)| p99_us)
}

/// A number field, 0 when missing.
fn number(value: &JsonValue, key: &str) -> u64 {
    value.get(key).and_then(JsonValue::as_u64).unwrap_or(0)
}

/// A string field, `?` when missing.
fn text<'v>(value: &'v JsonValue, key: &str) -> &'v str {
    value.get(key).and_then(JsonValue::as_str).unwrap_or("?")
}

/// A `records_per_sec` field as `12.3/s`, or `-` while it is `null`.
fn rate(value: &JsonValue) -> String {
    value
        .get("records_per_sec")
        .and_then(JsonValue::as_f64)
        .map_or_else(|| "-".to_string(), |rate| format!("{rate:.1}/s"))
}

/// One console frame: the fleet header with the fleet's slowest engine
/// phase, a row per job (progress bar, rate, ETA), a row per worker, and
/// the log tail.
///
/// `jobs` are `GET /jobs/{id}/progress` objects, `phases` is the `phases`
/// array those objects carry, `workers` are the rows of `GET /workers`,
/// `log_tail` is the last lines of the log ring and `log_next` its next
/// index. The fleet's record count is the sum of the jobs' `done`, and its
/// rate the sum of the lifetime rates of the workers that are not `stale`
/// (a stale worker's historical rate is not throughput).
///
/// The phases merge the latest cumulative snapshot of every worker, so
/// they cover every job the fleet has run since each worker started: the
/// frame shows them once, on the fleet line, as the phase with the worst
/// p99 and its p50/p99, rounded up to whole milliseconds.
pub fn frame(
    title: &str,
    jobs: &[JsonValue],
    phases: &[JsonValue],
    workers: &[JsonValue],
    log_tail: &[impl AsRef<str>],
    log_next: usize,
) -> String {
    let records: u64 = jobs.iter().map(|job| number(job, "done")).sum();
    let fleet_rate: f64 = workers
        .iter()
        .filter(|row| row.get("status").and_then(JsonValue::as_str) != Some("stale"))
        .filter_map(|row| row.get("records_per_sec").and_then(JsonValue::as_f64))
        .sum();
    let mut frame = format!(
        "{title}\nfleet: {} job(s), {} worker(s), {records} record(s), {fleet_rate:.1} records/s",
        jobs.len(),
        workers.len(),
    );
    if let Some((phase, p50_us, p99_us)) = slowest_phase(phases) {
        let _ = write!(
            frame,
            ", slow phase: {phase} p50 {}ms p99 {}ms",
            p50_us.div_ceil(1_000),
            p99_us.div_ceil(1_000)
        );
    }

    frame.push_str(
        "\n\nJOB       STATE     PROGRESS                     RECORDS         RATE      ETA\n",
    );
    if jobs.is_empty() {
        frame.push_str("  (no jobs submitted)\n");
    }
    for job in jobs {
        let (done, total) = (number(job, "done"), number(job, "total"));
        let width = 20usize;
        let filled = ((done.min(total) as usize * width) / total.max(1) as usize).min(width);
        let bar = format!(
            "[{}{}] {:>3}%",
            "#".repeat(filled),
            "-".repeat(width - filled),
            done * 100 / total.max(1),
        );
        let _ = writeln!(
            frame,
            "{:<9} {:<9} {bar:<26} {done:>6}/{total:<6} {:>8} {:>8}",
            text(job, "job"),
            text(job, "state"),
            rate(job),
            format_eta(job.get("eta_s").and_then(JsonValue::as_f64)),
        );
    }

    frame.push_str("\nWORKER                STATUS   RECORDS      RATE  LAST SEEN\n");
    if workers.is_empty() {
        frame.push_str("  (no workers seen)\n");
    }
    for row in workers {
        let age = row
            .get("last_seen_age_ms")
            .and_then(JsonValue::as_u64)
            .map_or_else(
                || "-".to_string(),
                |ms| format!("{:.1}s ago", ms as f64 / 1_000.0),
            );
        let _ = writeln!(
            frame,
            "{:<21} {:<8} {:>7} {:>9}  {age}",
            text(row, "name"),
            text(row, "status"),
            number(row, "records"),
            rate(row),
        );
    }

    let _ = writeln!(
        frame,
        "\nLOG  last {} of {log_next} line(s)",
        log_tail.len()
    );
    if log_tail.is_empty() {
        frame.push_str("  (log ring is empty)\n");
    }
    for line in log_tail {
        let _ = writeln!(frame, "  {}", line.as_ref());
    }
    frame
}

/// The one-line form of a job's `GET /jobs/{id}/progress` object that
/// `tats submit --wait` prints: done/total, the rate once there is one,
/// the ETA, and the fleet's slowest engine phase's p99 once a worker has
/// reported one.
pub fn progress_line(job: &str, progress: &JsonValue) -> String {
    let mut line = format!(
        "job {job}: {}/{} record(s)",
        number(progress, "done"),
        number(progress, "total")
    );
    if let Some(rate) = progress.get("records_per_sec").and_then(JsonValue::as_f64) {
        let _ = write!(line, ", {rate:.1}/s");
    }
    let _ = write!(
        line,
        ", eta {}",
        format_eta(progress.get("eta_s").and_then(JsonValue::as_f64))
    );
    let phases = progress.field_array("phases").unwrap_or_default();
    if let Some((phase, _, p99_us)) = slowest_phase(phases) {
        let _ = write!(
            line,
            ", fleet slow phase: {phase} p99 {}ms",
            p99_us.div_ceil(1_000)
        );
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eta_formatting_clamps_nonsense_to_dashes() {
        assert_eq!(format_eta(Some(42.4)), "42s");
        assert_eq!(format_eta(Some(0.0)), "0s");
        // A rate that rounds to zero yields a missing, infinite or absurd
        // eta_s — every shape of that must print as `--`, not a number.
        assert_eq!(format_eta(None), "--");
        assert_eq!(format_eta(Some(f64::NAN)), "--");
        assert_eq!(format_eta(Some(f64::INFINITY)), "--");
        assert_eq!(format_eta(Some(-3.0)), "--");
        assert_eq!(format_eta(Some(ETA_CLAMP_S + 1.0)), "--");
        assert_eq!(format_eta(Some(ETA_CLAMP_S)), "2592000s");
    }

    #[test]
    fn the_fleet_slow_phase_is_printed_once_on_the_fleet_line() {
        let parse = |text: &str| JsonValue::parse(text).expect("json");
        let phases = parse(
            r#"[{"phase":"scheduling","count":4,"p50_us":900,"p99_us":1500},
                {"phase":"thermal","count":4,"p50_us":20,"p99_us":40}]"#,
        );
        let phases = phases.as_array().expect("array");
        let jobs = [
            parse(r#"{"job":"j000001","state":"done","done":2,"total":2,"eta_s":0}"#),
            parse(r#"{"job":"j000002","state":"queued","done":0,"total":1}"#),
        ];
        let shown = frame("t", &jobs, phases, &[], &[] as &[&str], 0);
        assert_eq!(shown.matches("scheduling").count(), 1, "{shown}");
        let fleet = shown.lines().nth(1).expect("fleet line");
        assert!(
            fleet.ends_with(", slow phase: scheduling p50 1ms p99 2ms"),
            "{fleet}"
        );
        // Without phases the fleet line says nothing about them.
        let quiet = frame("t", &jobs, &[], &[], &[] as &[&str], 0);
        assert!(!quiet.contains("slow phase"), "{quiet}");
    }
}
