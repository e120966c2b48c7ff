//! The fleet console: the one renderer of the operator's view of a running
//! service. `tats top` fetches the JSON behind it over HTTP and prints
//! [`frame`]; `GET /dashboard` builds the same inputs from the registry
//! and serves the frame inside a `<pre>`; `tats submit --wait` prints
//! [`progress_line`]. A column added here shows up on all three.
//!
//! Every input is a wire object the service already serves, so the
//! console reads nothing a client could not:
//!
//! * a job row reads `job`, `state`, `done`, `total`, `records_per_sec`,
//!   `eta_s` and `phases` of that job's `GET /jobs/{id}/progress` object;
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

/// The engine phase with the worst p99 in a progress object's `phases`,
/// as `(phase, p50_us, p99_us)`.
fn slowest_phase(progress: &JsonValue) -> Option<(&str, u64, u64)> {
    progress
        .get("phases")?
        .as_array()?
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

/// One console frame: the fleet header, a row per job (progress bar, rate,
/// ETA, slowest engine phase), a row per worker, and the log tail.
///
/// `jobs` are `GET /jobs/{id}/progress` objects, `workers` are the rows of
/// `GET /workers`, `log_tail` is the last lines of the log ring and
/// `log_next` its next index. The fleet's record count is the sum of the
/// jobs' `done`, and its rate the sum of the lifetime rates of the workers
/// that are not `stale` (a stale worker's historical rate is not
/// throughput).
///
/// The `SLOW PHASE` column shows the phase with the worst p99 and its
/// p50/p99, rounded up to whole milliseconds. A job's `phases` merge the
/// latest cumulative snapshot of every worker, so they cover every job the
/// fleet has run since each worker started, not only the job of the row.
pub fn frame(
    title: &str,
    jobs: &[JsonValue],
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
        "{title}\nfleet: {} job(s), {} worker(s), {records} record(s), {fleet_rate:.1} records/s\n",
        jobs.len(),
        workers.len(),
    );

    frame.push_str("\nJOB       STATE     PROGRESS                     RECORDS         RATE      ETA  SLOW PHASE\n");
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
        let slow = slowest_phase(job).map_or_else(
            || "-".to_string(),
            |(phase, p50_us, p99_us)| {
                format!(
                    "{phase} p50 {}ms p99 {}ms",
                    p50_us.div_ceil(1_000),
                    p99_us.div_ceil(1_000)
                )
            },
        );
        let _ = writeln!(
            frame,
            "{:<9} {:<9} {bar:<26} {done:>6}/{total:<6} {:>8} {:>8}  {slow}",
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
/// the ETA, and the slowest engine phase's p99 once a worker has reported
/// one.
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
    if let Some((phase, _, p99_us)) = slowest_phase(progress) {
        let _ = write!(
            line,
            ", slow phase: {phase} p99 {}ms",
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
}
