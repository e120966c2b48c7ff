//! CSV export of schedules (`tats schedule --csv`).
//!
//! The exports are plain RFC-4180-style CSV strings (comma separated, `\n`
//! line endings, quoting only when needed) so they can be dropped straight
//! into a spreadsheet or plotted with any external tool.

use tats_core::Schedule;
use tats_taskgraph::TaskGraph;

use crate::error::TraceError;

/// Quotes a CSV field when it contains a delimiter, quote or newline.
fn escape(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// Serialises one row of fields.
fn row(fields: &[String]) -> String {
    fields
        .iter()
        .map(|field| escape(field))
        .collect::<Vec<_>>()
        .join(",")
}

/// Exports a schedule as CSV with one row per assignment.
///
/// Columns: `task`, `name`, `pe`, `start`, `end`, `duration`, `power`,
/// `energy`.  Task names come from `graph` when provided.
///
/// # Errors
///
/// Returns [`TraceError::EmptyInput`] for a schedule without assignments.
///
/// # Examples
///
/// ```
/// use tats_core::{PlatformFlow, Policy};
/// use tats_taskgraph::Benchmark;
/// use tats_techlib::profiles;
/// use tats_trace::csv;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let library = profiles::standard_library(12)?;
/// let graph = Benchmark::Bm1.task_graph()?;
/// let result = PlatformFlow::new(&library)?.run(&graph, Policy::Baseline)?;
/// let text = csv::schedule_to_csv(&result.schedule, Some(&graph))?;
/// assert!(text.starts_with("task,name,pe,start,end,duration,power,energy"));
/// # Ok(())
/// # }
/// ```
pub fn schedule_to_csv(
    schedule: &Schedule,
    graph: Option<&TaskGraph>,
) -> Result<String, TraceError> {
    if schedule.task_count() == 0 {
        return Err(TraceError::EmptyInput("schedule has no assignments".into()));
    }
    let mut lines = vec![row(&[
        "task".into(),
        "name".into(),
        "pe".into(),
        "start".into(),
        "end".into(),
        "duration".into(),
        "power".into(),
        "energy".into(),
    ])];
    let mut assignments: Vec<_> = schedule.assignments().iter().collect();
    assignments.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .expect("schedule times are finite")
            .then(a.pe.index().cmp(&b.pe.index()))
    });
    for assignment in assignments {
        let name = graph
            .and_then(|g| g.get_task(assignment.task))
            .map(|task| task.name().to_string())
            .unwrap_or_else(|| format!("t{}", assignment.task.index()));
        lines.push(row(&[
            assignment.task.index().to_string(),
            name,
            assignment.pe.index().to_string(),
            format!("{:.6}", assignment.start),
            format!("{:.6}", assignment.end),
            format!("{:.6}", assignment.duration()),
            format!("{:.6}", assignment.power),
            format!("{:.6}", assignment.energy()),
        ]));
    }
    Ok(lines.join("\n") + "\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tats_core::{PlatformFlow, Policy};
    use tats_taskgraph::Benchmark;
    use tats_techlib::profiles;

    fn fixture() -> (Schedule, TaskGraph) {
        let library = profiles::standard_library(12).expect("library");
        let graph = Benchmark::Bm1.task_graph().expect("graph");
        let result = PlatformFlow::new(&library)
            .expect("flow")
            .run(&graph, Policy::Baseline)
            .expect("result");
        (result.schedule, graph)
    }

    #[test]
    fn schedule_csv_has_one_row_per_assignment_plus_header() {
        let (schedule, graph) = fixture();
        let text = schedule_to_csv(&schedule, Some(&graph)).expect("csv");
        let lines: Vec<&str> = text.trim_end().lines().collect();
        assert_eq!(lines.len(), schedule.task_count() + 1);
        assert!(lines[0].starts_with("task,name,pe"));
        // Start times are non-decreasing because rows are sorted.
        let starts: Vec<f64> = lines[1..]
            .iter()
            .map(|line| {
                line.split(',')
                    .nth(3)
                    .expect("start column")
                    .parse()
                    .expect("float")
            })
            .collect();
        for pair in starts.windows(2) {
            assert!(pair[0] <= pair[1] + 1e-9);
        }
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        assert_eq!(escape("a,b"), "\"a,b\"");
        assert_eq!(escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn names_fall_back_to_task_ids_without_a_graph() {
        let (schedule, _) = fixture();
        let text = schedule_to_csv(&schedule, None).expect("csv");
        let first_task = text.lines().nth(1).expect("one assignment row");
        let id = first_task.split(',').next().expect("task column");
        assert!(
            first_task.starts_with(&format!("{id},t{id},")),
            "{first_task}"
        );
    }
}
