//! ASCII Gantt charts of schedules.
//!
//! A schedule is easiest to sanity-check visually: one row per processing
//! element, time flowing left to right, each task drawn as a labelled box.
//! The renderer is deliberately plain text so it works in test logs, CI
//! output and the CLI.

use tats_core::Schedule;
use tats_taskgraph::TaskGraph;
use tats_techlib::PeId;

use crate::error::TraceError;

/// ASCII Gantt renderer: a timeline per PE with its utilisation, then a
/// deadline marker row.
#[derive(Debug, Clone)]
pub struct GanttChart {
    width: usize,
}

impl GanttChart {
    /// Creates a renderer with an 80-column timeline.
    pub fn new() -> Self {
        GanttChart { width: 80 }
    }

    /// Sets the number of character cells of the timeline.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidParameter`] for widths below 10.
    pub fn with_width(mut self, width: usize) -> Result<Self, TraceError> {
        if width < 10 {
            return Err(TraceError::InvalidParameter(format!(
                "timeline width must be at least 10 columns, got {width}"
            )));
        }
        self.width = width;
        Ok(self)
    }

    /// Renders the schedule as a multi-line string.
    ///
    /// Task labels use the task names from `graph` when it is provided and
    /// fall back to `t<id>` otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::EmptyInput`] for a schedule without assignments
    /// or with a non-positive makespan.
    ///
    /// # Examples
    ///
    /// ```
    /// use tats_core::{PlatformFlow, Policy};
    /// use tats_taskgraph::Benchmark;
    /// use tats_techlib::profiles;
    /// use tats_trace::GanttChart;
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let library = profiles::standard_library(12)?;
    /// let graph = Benchmark::Bm1.task_graph()?;
    /// let result = PlatformFlow::new(&library)?.run(&graph, Policy::ThermalAware)?;
    /// let chart = GanttChart::new().render(&result.schedule, Some(&graph))?;
    /// assert!(chart.contains("PE0"));
    /// # Ok(())
    /// # }
    /// ```
    pub fn render(
        &self,
        schedule: &Schedule,
        graph: Option<&TaskGraph>,
    ) -> Result<String, TraceError> {
        if schedule.task_count() == 0 {
            return Err(TraceError::EmptyInput("schedule has no assignments".into()));
        }
        let horizon = schedule.deadline().max(schedule.makespan());
        if horizon <= 0.0 || !horizon.is_finite() {
            return Err(TraceError::EmptyInput(
                "schedule has a non-positive horizon".into(),
            ));
        }
        let scale = self.width as f64 / horizon;
        let mut out = String::new();

        // Header: time axis.
        out.push_str(&format!(
            "time 0 {:-^width$} {:.0}\n",
            "",
            horizon,
            width = self.width.saturating_sub(2)
        ));

        let mut assignments = Vec::new();
        for pe_index in 0..schedule.pe_count() {
            let pe = PeId(pe_index);
            let mut row = vec![b'.'; self.width];
            schedule.assignments_on_sorted_into(pe, &mut assignments);
            for assignment in &assignments {
                let start_cell =
                    ((assignment.start * scale).floor() as usize).min(self.width.saturating_sub(1));
                let end_cell =
                    ((assignment.end * scale).ceil() as usize).clamp(start_cell + 1, self.width);
                let label = match graph.and_then(|g| g.get_task(assignment.task)) {
                    Some(task) => task.name().to_string(),
                    None => format!("t{}", assignment.task.index()),
                };
                let span = end_cell - start_cell;
                for (offset, cell) in row[start_cell..end_cell].iter_mut().enumerate() {
                    *cell = if offset == 0 {
                        b'['
                    } else if offset + 1 == span {
                        b']'
                    } else {
                        b'#'
                    };
                }
                // Overlay as much of the label as fits inside the box.
                let interior = span.saturating_sub(2);
                for (offset, byte) in label
                    .bytes()
                    .filter(u8::is_ascii_graphic)
                    .take(interior)
                    .enumerate()
                {
                    row[start_cell + 1 + offset] = byte;
                }
            }
            let utilisation = 100.0 * schedule.busy_time(pe) / horizon;
            out.push_str(&format!(
                "PE{:<3} |{}| {utilisation:5.1}%\n",
                pe_index,
                String::from_utf8(row).expect("rendered row is ASCII")
            ));
        }

        let deadline_cell = ((schedule.deadline() * scale).round() as usize).min(self.width);
        let mut marker = vec![b' '; self.width];
        if deadline_cell > 0 {
            marker[deadline_cell - 1] = b'^';
        }
        out.push_str(&format!(
            "      |{}| deadline {:.0} / makespan {:.1}\n",
            String::from_utf8(marker).expect("marker row is ASCII"),
            schedule.deadline(),
            schedule.makespan()
        ));
        Ok(out)
    }
}

impl Default for GanttChart {
    fn default() -> Self {
        GanttChart::new()
    }
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
        let schedule = PlatformFlow::new(&library)
            .expect("flow")
            .run(&graph, Policy::Baseline)
            .expect("result")
            .schedule;
        (schedule, graph)
    }

    #[test]
    fn renders_one_row_per_pe() {
        let (schedule, graph) = fixture();
        let chart = GanttChart::new()
            .render(&schedule, Some(&graph))
            .expect("chart");
        // The full default chart of Bm1's baseline schedule: the time axis,
        // one row per PE with its utilisation, then the deadline marker.
        let expected = [
            "time 0 ------------------------------------------------------------------------------ 790",
            "PE0   |[Bm1_t0#]....[Bm1_t6####[Bm1_t10#[Bm1_t9#####[Bm1_t18######]....................|  67.5%",
            "PE1   |[Bm1_t1######[Bm1_t3#######[Bm1_t4####[Bm1_t16####[Bm1_t14######]...............|  80.2%",
            "PE2   |........[Bm1_t5#######[Bm1_t13##[Bm1_t7#####[Bm1_t15##].........................|  57.0%",
            "PE3   |........[Bm1_t2#######[Bm1_t12[Bm1_t8#####[Bm1_t11#[Bm1_t17#####]...............|  70.5%",
            "      |                                                                               ^| deadline 790 / makespan 641.4",
        ];
        assert_eq!(chart, expected.join("\n") + "\n");
    }

    #[test]
    fn narrow_chart_still_renders_every_task_box() {
        let (schedule, _) = fixture();
        let chart = GanttChart::new()
            .with_width(40)
            .expect("valid width")
            .render(&schedule, None)
            .expect("chart");
        // Every busy PE must show at least one box.
        for pe in 0..schedule.pe_count() {
            let busy = schedule.busy_time(tats_techlib::PeId(pe)) > 0.0;
            if busy {
                let row = chart
                    .lines()
                    .find(|line| line.starts_with(&format!("PE{pe}")))
                    .expect("row exists");
                assert!(row.contains('['), "busy PE row must contain a task box");
            }
        }
    }

    #[test]
    fn rejects_tiny_widths_and_empty_schedules() {
        assert!(GanttChart::new().with_width(3).is_err());
    }

    #[test]
    fn labels_fall_back_without_a_graph() {
        let (schedule, _) = fixture();
        let chart = GanttChart::new().render(&schedule, None).expect("chart");
        assert!(chart.contains('['));
    }
}
