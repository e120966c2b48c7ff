//! Streaming JSON-Lines output for batch campaign results and the
//! campaign service's files and paged streams.
//!
//! The batch engine wants each result on disk as soon as every lower
//! scenario id is (so an interrupted run loses little and a `--resume` can
//! pick up where it stopped). JSON Lines is the natural
//! format: one self-contained [`JsonValue`] object per line, appendable,
//! mergeable with `cat`. The service writes its journal, access log, span
//! log and log file through the same crash-repaired [`JsonlWriter`]
//! ([`append_repaired`]), and serves every `?from=k` stream through
//! [`page`].
//!
//! Resuming only needs the numeric `id` field of each line, so
//! [`completed_ids`] recovers those with a targeted scan instead of the full
//! [`JsonValue::parse`]; the scan is exact for lines produced by
//! [`JsonlWriter`] (keys are emitted sorted and escaped, so the literal
//! `"id":` substring appears exactly once, at the top level).

use std::collections::BTreeSet;
use std::io::{self, BufRead, Write};

use crate::json::JsonValue;

/// Writes one JSON value per line, flushing after every record so results
/// survive an interrupt.
///
/// # Examples
///
/// ```
/// use tats_trace::jsonl::JsonlWriter;
/// use tats_trace::JsonValue;
///
/// let mut out = Vec::new();
/// let mut writer = JsonlWriter::new(&mut out);
/// writer.write(&JsonValue::object(vec![
///     ("id".to_string(), JsonValue::from(3usize)),
/// ])).unwrap();
/// assert_eq!(String::from_utf8(out).unwrap(), "{\"id\":3}\n");
/// ```
#[derive(Debug)]
pub struct JsonlWriter<W: Write> {
    inner: W,
    records: usize,
}

impl<W: Write> JsonlWriter<W> {
    /// Wraps a writer (a file opened in append mode, a `Vec<u8>`, ...).
    pub fn new(inner: W) -> Self {
        JsonlWriter { inner, records: 0 }
    }

    /// Serialises `value` as one line and flushes.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write(&mut self, value: &JsonValue) -> io::Result<()> {
        self.write_lines(&[value.to_json()])
    }

    /// Appends pre-serialised lines, each trimmed and newline-terminated,
    /// in one write and one flush. An empty batch writes nothing.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn write_lines<S: AsRef<str>>(&mut self, lines: &[S]) -> io::Result<()> {
        if lines.is_empty() {
            return Ok(());
        }
        let mut batch = String::new();
        for line in lines {
            batch.push_str(line.as_ref().trim());
            batch.push('\n');
        }
        self.inner.write_all(batch.as_bytes())?;
        self.inner.flush()?;
        self.records += lines.len();
        Ok(())
    }

    /// Number of records written so far.
    pub fn records(&self) -> usize {
        self.records
    }

    /// Unwraps the underlying writer.
    pub fn into_inner(self) -> W {
        self.inner
    }
}

/// Returns `true` if a line is a structurally complete JSONL record — it
/// opens and closes an object. A process killed mid-[`JsonlWriter::write`]
/// leaves a partial final line; such a line must be *ignored* by the resume
/// scanner (the scenario simply re-runs), never trusted (its id may have
/// survived while the rest of the record did not) and never treated as an
/// error (a killed worker must leave a resumable file).
pub fn is_complete_record(line: &str) -> bool {
    let trimmed = line.trim();
    trimmed.starts_with('{') && trimmed.ends_with('}')
}

/// Repairs a JSONL file whose final record was truncated by a crash
/// mid-write: drops every byte after the last newline, so subsequent appends
/// start on a fresh line instead of concatenating onto the partial record.
/// Returns the number of bytes dropped (0 for a clean file or a missing
/// one).
///
/// # Errors
///
/// Propagates I/O errors (other than the file not existing).
pub fn truncate_partial_tail(path: &std::path::Path) -> io::Result<u64> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    if bytes.is_empty() || bytes.ends_with(b"\n") {
        return Ok(0);
    }
    let keep = bytes
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |index| index + 1) as u64;
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(keep)?;
    Ok(bytes.len() as u64 - keep)
}

/// Opens `path` for appending as a JSONL journal that survives a process
/// kill: first repairs a partial trailing record left by a process killed
/// mid-write (see [`truncate_partial_tail`]), then opens the file in append
/// mode (creating it when missing). Returns the writer plus the number of
/// repaired (dropped) bytes. Every [`JsonlWriter::write`] flushes to the
/// operating system, so the only damage a process kill can do is one partial
/// final line — exactly what the repair on the next open fixes. Nothing is
/// fsynced: a power loss or kernel crash can drop lines already written.
///
/// # Errors
///
/// Propagates I/O errors from the repair and the open.
pub fn append_repaired(path: &std::path::Path) -> io::Result<(JsonlWriter<std::fs::File>, u64)> {
    let repaired = truncate_partial_tail(path)?;
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    Ok((JsonlWriter::new(file), repaired))
}

/// Extracts the top-level numeric `"id"` field of a JSONL line written by
/// [`JsonlWriter`]. Returns `None` for lines without one (or with a
/// non-numeric id).
pub fn line_id(line: &str) -> Option<u64> {
    let start = line.find("\"id\":")? + "\"id\":".len();
    let digits: String = line[start..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    if digits.is_empty() {
        None
    } else {
        digits.parse().ok()
    }
}

/// Extracts a top-level string field of a JSONL line written by
/// [`JsonlWriter`]. Returns the raw bytes between the quotes, so it is only
/// exact for values that serialise without escapes — which scenario keys
/// (`Bm1/platform/thermal/s0`) satisfy by construction.
pub fn line_str_field<'l>(line: &'l str, field: &str) -> Option<&'l str> {
    let marker = format!("\"{field}\":\"");
    let start = line.find(&marker)? + marker.len();
    let rest = &line[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

/// One page of a line stream whose retained lines start at index `first`:
/// the lines at indices `>= from`, each newline-terminated, plus the index
/// to pass as the next `from`. A `from` below `first` is served from the
/// oldest retained line; one at or past the end yields an empty page. This
/// is the body and `x-next-from` header of every `?from=k` endpoint.
pub fn page<'l, I>(lines: I, first: usize, from: usize) -> (String, usize)
where
    I: IntoIterator<Item = &'l String>,
    I::IntoIter: ExactSizeIterator,
{
    let lines = lines.into_iter();
    let next = first + lines.len();
    let mut body = String::new();
    for line in lines.skip(from.clamp(first, next) - first) {
        body.push_str(line);
        body.push('\n');
    }
    (body, next)
}

/// Scans an existing JSONL stream and collects the scenario ids already
/// present — the resume set of a batch campaign. Blank lines, lines without
/// an id and structurally incomplete lines are skipped: a record truncated
/// by a crash mid-write does not count as done even when its `"id"` field
/// happens to have reached the disk, so the scenario re-runs instead of its
/// partial data being trusted.
///
/// # Errors
///
/// Propagates I/O errors from the reader.
pub fn completed_ids(reader: impl BufRead) -> io::Result<BTreeSet<u64>> {
    let mut ids = BTreeSet::new();
    for line in reader.lines() {
        let line = line?;
        if !is_complete_record(&line) {
            continue;
        }
        if let Some(id) = line_id(&line) {
            ids.insert(id);
        }
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, temp: f64) -> JsonValue {
        JsonValue::object(vec![
            ("id".to_string(), JsonValue::from(id)),
            ("max_temp_c".to_string(), JsonValue::from(temp)),
        ])
    }

    #[test]
    fn writer_emits_one_line_per_record() {
        let mut writer = JsonlWriter::new(Vec::new());
        writer.write(&record(0, 81.5)).unwrap();
        writer.write(&record(7, 79.25)).unwrap();
        assert_eq!(writer.records(), 2);
        let text = String::from_utf8(writer.into_inner()).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.ends_with('\n'));
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn completed_ids_round_trips_written_records() {
        let mut writer = JsonlWriter::new(Vec::new());
        for id in [4usize, 0, 9] {
            writer.write(&record(id, 50.0)).unwrap();
        }
        let bytes = writer.into_inner();
        let ids = completed_ids(bytes.as_slice()).unwrap();
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![0, 4, 9]);
    }

    #[test]
    fn malformed_and_blank_lines_are_skipped() {
        let text = "\n{\"id\":3}\n{\"other\":1}\ngarbage\n{\"id\":no}\n{\"id\":12,\"max_temp_c\":4";
        let ids = completed_ids(text.as_bytes()).unwrap();
        // The final line was truncated by a crash mid-write: even though its
        // id survived, the record did not, so it must NOT count as done —
        // the scenario re-runs and the resume set stays sound.
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![3]);
    }

    #[test]
    fn complete_record_detection() {
        assert!(is_complete_record("{\"id\":3}"));
        assert!(is_complete_record("  {\"id\":3}  "));
        assert!(!is_complete_record("{\"id\":3"));
        assert!(!is_complete_record(""));
        assert!(!is_complete_record("garbage"));
    }

    #[test]
    fn truncate_partial_tail_repairs_crashed_files() {
        let path = std::env::temp_dir().join("tats_trace_truncate_tail_test.jsonl");
        // A clean file is untouched.
        std::fs::write(&path, "{\"id\":0}\n{\"id\":1}\n").unwrap();
        assert_eq!(truncate_partial_tail(&path).unwrap(), 0);
        // A partial trailing record (crash mid-write) is dropped so appends
        // start on a fresh line.
        std::fs::write(&path, "{\"id\":0}\n{\"id\":1}\n{\"id\":2,\"max_t").unwrap();
        assert_eq!(truncate_partial_tail(&path).unwrap(), 14);
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "{\"id\":0}\n{\"id\":1}\n"
        );
        // A file that is nothing but a partial record empties out.
        std::fs::write(&path, "{\"id\":7,\"ke").unwrap();
        assert_eq!(truncate_partial_tail(&path).unwrap(), 11);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        // Missing files are fine (first run of a campaign).
        let _ = std::fs::remove_file(&path);
        assert_eq!(truncate_partial_tail(&path).unwrap(), 0);
    }

    #[test]
    fn append_repaired_resumes_a_crashed_journal() {
        let path = std::env::temp_dir().join("tats_trace_append_repaired_test.jsonl");
        let _ = std::fs::remove_file(&path);
        // First open creates the file.
        let (mut writer, repaired) = append_repaired(&path).unwrap();
        assert_eq!(repaired, 0);
        writer.write(&record(0, 50.0)).unwrap();
        drop(writer);
        // Simulate a kill mid-write: a partial record on the tail.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(b"{\"id\":1,\"max_t");
        std::fs::write(&path, &bytes).unwrap();
        // Reopening repairs the tail and appends on a fresh line.
        let (mut writer, repaired) = append_repaired(&path).unwrap();
        assert_eq!(repaired, 14);
        writer.write(&record(1, 60.0)).unwrap();
        drop(writer);
        let ids = completed_ids(std::fs::read(&path).unwrap().as_slice()).unwrap();
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![0, 1]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn write_lines_batches_through_the_crash_repaired_log() {
        let path = std::env::temp_dir().join("tats_trace_write_lines_test.jsonl");
        let _ = std::fs::remove_file(&path);
        // A kill -9 mid-write left a partial line after a complete one.
        std::fs::write(&path, "{\"id\":0}\n{\"id\":1,\"ke").unwrap();
        let (mut writer, repaired) = append_repaired(&path).unwrap();
        assert_eq!(repaired, 11);
        writer
            .write_lines(&["{\"id\":1}", " {\"id\":2}\r"])
            .unwrap();
        writer.write_lines::<String>(&[]).unwrap();
        writer.write(&record(3, 50.0)).unwrap();
        assert_eq!(writer.records(), 3);
        drop(writer);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[..3], ["{\"id\":0}", "{\"id\":1}", "{\"id\":2}"]);
        assert!(text.ends_with('\n'));
        let ids = completed_ids(text.as_bytes()).unwrap();
        assert_eq!(ids.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn line_id_parses_only_leading_digits() {
        assert_eq!(line_id("{\"id\":42,\"x\":1}"), Some(42));
        assert_eq!(line_id("{\"x\":1}"), None);
        assert_eq!(line_id(""), None);
    }

    #[test]
    fn line_str_field_extracts_plain_string_values() {
        let line = "{\"id\":3,\"key\":\"Bm1/platform/thermal/s0\",\"flow\":\"platform\"}";
        assert_eq!(line_str_field(line, "key"), Some("Bm1/platform/thermal/s0"));
        assert_eq!(line_str_field(line, "flow"), Some("platform"));
        assert_eq!(line_str_field(line, "missing"), None);
        assert_eq!(line_str_field("{\"key\":3}", "key"), None);
    }
}
