//! Markdown rendering of the paper's experiment tables.
//!
//! `tats tables` prints the reproduced tables through this module, the one
//! renderer of Tables 1–3; GitHub-flavoured markdown makes them easy to
//! paste into documents and issue discussions.

use tats_core::experiment::{ComparisonTable, Table1};

/// Renders a generic markdown table.
///
/// Every row is padded or truncated to the header width so the output is
/// always well-formed.
pub fn markdown_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let width = headers.len();
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(width)));
    for row in rows {
        let mut cells: Vec<String> = row.iter().take(width).cloned().collect();
        while cells.len() < width {
            cells.push(String::new());
        }
        out.push_str(&format!("| {} |\n", cells.join(" | ")));
    }
    out
}

/// Renders the reproduction of the paper's Table 1 (power-heuristic
/// comparison on co-synthesis and platform architectures).
pub fn table1_to_markdown(table: &Table1) -> String {
    let headers = [
        "benchmark",
        "policy",
        "co-syn total pow.",
        "co-syn max temp",
        "co-syn avg temp",
        "platform total pow.",
        "platform max temp",
        "platform avg temp",
    ];
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|row| {
            vec![
                row.benchmark.name().to_string(),
                row.policy.label(),
                format!("{:.2}", row.cosynthesis.total_power),
                format!("{:.2}", row.cosynthesis.max_temp_c),
                format!("{:.2}", row.cosynthesis.avg_temp_c),
                format!("{:.2}", row.platform.total_power),
                format!("{:.2}", row.platform.max_temp_c),
                format!("{:.2}", row.platform.avg_temp_c),
            ]
        })
        .collect();
    markdown_table(&headers, &rows)
}

/// Renders a power-aware vs thermal-aware comparison (paper Tables 2 / 3),
/// ending with the mean temperature reductions the paper quotes in the text.
pub fn comparison_to_markdown(table: &ComparisonTable) -> String {
    let headers = [
        "benchmark",
        "power total pow.",
        "power max temp",
        "power avg temp",
        "thermal total pow.",
        "thermal max temp",
        "thermal avg temp",
    ];
    let rows: Vec<Vec<String>> = table
        .rows
        .iter()
        .map(|row| {
            vec![
                row.benchmark.name().to_string(),
                format!("{:.2}", row.power_aware.total_power),
                format!("{:.2}", row.power_aware.max_temp_c),
                format!("{:.2}", row.power_aware.avg_temp_c),
                format!("{:.2}", row.thermal_aware.total_power),
                format!("{:.2}", row.thermal_aware.max_temp_c),
                format!("{:.2}", row.thermal_aware.avg_temp_c),
            ]
        })
        .collect();
    let mut out = format!("**{}**\n\n", table.caption);
    out.push_str(&markdown_table(&headers, &rows));
    out.push_str(&format!(
        "\nMean reduction: {:.2} °C (max), {:.2} °C (avg)\n",
        table.mean_max_temp_reduction(),
        table.mean_avg_temp_reduction()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generic_table_pads_and_truncates_rows() {
        let text = markdown_table(
            &["a", "b"],
            &[
                vec!["1".into()],
                vec!["2".into(), "3".into(), "ignored".into()],
            ],
        );
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[0], "| a | b |");
        assert_eq!(lines[1], "|---|---|");
        assert_eq!(lines[2], "| 1 |  |");
        assert_eq!(lines[3], "| 2 | 3 |");
    }

    #[test]
    fn header_and_separator_have_matching_columns() {
        let text = markdown_table(&["x", "y", "z"], &[]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0].matches('|').count(), 4);
        assert_eq!(lines[1].matches('|').count(), 4);
    }
}
