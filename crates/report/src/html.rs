//! One self-contained static HTML page bundling every analysis — pareto,
//! sensitivity, compare, trend — with the SVG charts inlined.
//!
//! No scripts, no external assets, no timestamps: the page is a plain
//! string assembled from the same data structures the Markdown renderers
//! consume, byte-deterministic so `report html` output can be golden-tested
//! and archived per commit/night by CI.

use std::collections::BTreeMap;

use vmv_sweep::{AxisSensitivity, ParetoEntry};

use crate::compare::{CompareReport, CompareRow};
use crate::svg;
use crate::trend::{BenchPoint, StoreTrend};

/// HTML-escape text content and attribute values.
pub fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Column alignment of [`table`].
#[derive(Clone, Copy)]
pub enum Align {
    Left,
    Right,
    Center,
}

/// A plain data table.  Cell text is escaped here — callers pass raw
/// strings.
pub fn table(headers: &[(&str, Align)], rows: &[Vec<String>]) -> String {
    let class = |a: Align| match a {
        Align::Left => "l",
        Align::Right => "r",
        Align::Center => "c",
    };
    let mut out = String::from("<table>\n<thead><tr>");
    for (h, a) in headers {
        out.push_str(&format!("<th class=\"{}\">{}</th>", class(*a), esc(h)));
    }
    out.push_str("</tr></thead>\n<tbody>\n");
    for row in rows {
        out.push_str("<tr>");
        for (i, cell) in row.iter().enumerate() {
            let a = headers.get(i).map(|(_, a)| *a).unwrap_or(Align::Left);
            out.push_str(&format!("<td class=\"{}\">{}</td>", class(a), esc(cell)));
        }
        out.push_str("</tr>\n");
    }
    out.push_str("</tbody>\n</table>\n");
    out
}

/// One rendered page section: a stable `id=` anchor (fixed per section
/// kind, never derived from data), the heading for the table of contents,
/// and the rendered body.
#[derive(Debug, Clone)]
pub struct Section {
    pub id: &'static str,
    pub title: &'static str,
    pub html: String,
}

fn section(id: &'static str, heading: &'static str, body: String) -> Section {
    Section {
        id,
        title: heading,
        html: format!(
            "<section id=\"{id}\">\n<h2>{}</h2>\n{body}</section>\n",
            esc(heading)
        ),
    }
}

/// Pareto section: chart + cost/cycles table.
pub fn pareto_section(spec_name: &str, entries: &[ParetoEntry]) -> Section {
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                if e.on_frontier { "*" } else { "" }.to_string(),
                e.name.clone(),
                format!("{:.1}", e.cost),
                e.cycles.to_string(),
                e.benchmarks.to_string(),
            ]
        })
        .collect();
    let body = format!(
        "{}\n{}",
        svg::pareto_svg(&format!("{spec_name} — cost vs cycles"), entries),
        table(
            &[
                ("frontier", Align::Center),
                ("design point", Align::Left),
                ("cost", Align::Right),
                ("cycles", Align::Right),
                ("benchmarks", Align::Right),
            ],
            &rows,
        )
    );
    section("pareto", "Pareto frontier", body)
}

/// Sensitivity section: chart + per-axis swing table.
pub fn sensitivity_section(spec_name: &str, rows: &[AxisSensitivity]) -> Section {
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.axis.clone(),
                r.groups.to_string(),
                format!("{:.3}x", r.mean_swing),
                format!("{:.3}x", r.max_swing),
            ]
        })
        .collect();
    let body = format!(
        "{}\n{}",
        svg::sensitivity_svg(&format!("{spec_name} — per-axis swing"), rows),
        table(
            &[
                ("axis", Align::Left),
                ("groups", Align::Right),
                ("mean swing", Align::Right),
                ("max swing", Align::Right),
            ],
            &table_rows,
        )
    );
    section("sensitivity", "Axis sensitivity", body)
}

/// Compare section: summary table, per-group geomeans, worst rows.
pub fn compare_section(
    baseline_name: &str,
    report: &CompareReport,
    groups: &BTreeMap<String, Vec<CompareRow>>,
) -> Section {
    let summary = table(
        &[("metric", Align::Left), ("value", Align::Right)],
        &[
            vec!["matched runs".into(), report.rows.len().to_string()],
            vec![
                "geometric-mean speedup".into(),
                format!("{:.3}x", report.geomean_speedup),
            ],
            vec![
                "regressions (speedup < 1)".into(),
                report.regressions.to_string(),
            ],
            vec![
                "worst regression".into(),
                format!("{:.2}%", report.worst_regression_pct()),
            ],
            vec![
                "only in store / only in baseline".into(),
                format!("{} / {}", report.only_in_store, report.only_in_baseline),
            ],
        ],
    );
    let group_rows: Vec<Vec<String>> = groups
        .iter()
        .map(|(value, rows)| {
            let worst = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
            vec![
                value.clone(),
                rows.len().to_string(),
                format!("{:.3}x", crate::compare::geomean(rows)),
                format!("{:.3}x", if worst.is_finite() { worst } else { 1.0 }),
            ]
        })
        .collect();
    let per_run: Vec<Vec<String>> = report
        .rows
        .iter()
        .map(|r| {
            vec![
                r.config.clone(),
                r.benchmark.clone(),
                r.model.clone(),
                r.baseline_cycles.to_string(),
                r.cycles.to_string(),
                format!("{:.3}x", r.speedup),
            ]
        })
        .collect();
    let body = format!(
        "<p>vs. baseline <code>{}</code> — runs joined by content-derived key; \
         speedup above 1.000x means this store is faster.</p>\n{summary}\n\
         <h3>By group</h3>\n{}\n<h3>Per run (worst first)</h3>\n{}",
        esc(baseline_name),
        table(
            &[
                ("group", Align::Left),
                ("runs", Align::Right),
                ("geomean speedup", Align::Right),
                ("worst speedup", Align::Right),
            ],
            &group_rows,
        ),
        table(
            &[
                ("design point", Align::Left),
                ("benchmark", Align::Left),
                ("model", Align::Left),
                ("baseline cycles", Align::Right),
                ("cycles", Align::Right),
                ("speedup", Align::Right),
            ],
            &per_run,
        )
    );
    section("compare", "Compare", body)
}

/// Trend section: cycles-over-stores chart + the per-run table.
pub fn trend_section(t: &StoreTrend) -> Section {
    let mut body = String::new();
    for w in &t.warnings {
        body.push_str(&format!("<p class=\"warn\">warning: {}</p>\n", esc(w)));
    }
    body.push_str(&crate::trend::trend_svg(t));
    let mut headers: Vec<(&str, Align)> = vec![
        ("design point", Align::Left),
        ("benchmark", Align::Left),
        ("model", Align::Left),
    ];
    for c in &t.columns {
        headers.push((c, Align::Right));
    }
    headers.push(("ratio", Align::Right));
    let rows: Vec<Vec<String>> = t
        .rows
        .iter()
        .map(|r| {
            let mut row = vec![r.config.clone(), r.benchmark.clone(), r.model.clone()];
            for c in &r.cycles {
                row.push(c.map_or("-".to_string(), |c| c.to_string()));
            }
            row.push(r.ratio.map_or("-".to_string(), |x| format!("{x:.3}x")));
            row
        })
        .collect();
    body.push_str(&table(&headers, &rows));
    section("trend", "Trend over stores", body)
}

/// Bench-trajectory section: throughput chart + per-entry table.
pub fn bench_section(points: &[BenchPoint]) -> Section {
    let mut body = crate::trend::bench_trend_svg(points);
    let num = |v: Option<f64>| v.map_or("-".to_string(), |v| format!("{v:.0}"));
    let rows: Vec<Vec<String>> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            vec![
                (i + 1).to_string(),
                p.host.clone(),
                p.commit.clone(),
                num(p.table2_scps),
                num(p.synthetic_scps),
            ]
        })
        .collect();
    body.push_str(&table(
        &[
            ("entry", Align::Right),
            ("host", Align::Left),
            ("commit", Align::Left),
            ("table2 scps", Align::Right),
            ("synthetic scps", Align::Right),
        ],
        &rows,
    ));
    section("bench", "Bench trajectory", body)
}

/// Profile section: per-benchmark stall-cause stacked bars + totals table,
/// from the `vmv-profile/1` documents a profiled sweep left next to the
/// store.
pub fn profile_section(docs: &[vmv_sweep::ProfileDoc]) -> Section {
    let rows = crate::profile::stalls_by_benchmark(docs);
    let table_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|(name, stalls)| {
            vec![
                name.clone(),
                docs.iter()
                    .filter(|d| &d.meta.benchmark == name)
                    .count()
                    .to_string(),
                crate::profile::total(stalls).to_string(),
                crate::profile::top_stall(stalls).to_string(),
            ]
        })
        .collect();
    let body = format!(
        "<p>{} profiled runs — stall cycles by cause, summed per benchmark; \
         attributed cycles sum exactly to each run's cycle count \
         (<code>report profile</code> drills into one run).</p>\n{}\n{}",
        docs.len(),
        crate::profile::stall_stacked_svg(&rows),
        table(
            &[
                ("benchmark", Align::Left),
                ("runs", Align::Right),
                ("stall cycles", Align::Right),
                ("top stall cause", Align::Left),
            ],
            &table_rows,
        )
    );
    section("profile", "Profile", body)
}

/// Assemble the page: fixed minimal CSS, a table of contents anchored on
/// the sections' stable ids, the sections in caller order, nothing
/// machine- or time-dependent.
pub fn page(title: &str, subtitle: &str, sections: &[Section]) -> String {
    let mut out = String::new();
    out.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    out.push_str(&format!("<title>{}</title>\n", esc(title)));
    out.push_str(
        "<style>\n\
         body{font-family:monospace;max-width:960px;margin:2em auto;padding:0 1em;color:#111}\n\
         h1{font-size:1.5em}h2{font-size:1.2em;border-bottom:1px solid #d1d5db;padding-bottom:.2em}\n\
         table{border-collapse:collapse;margin:1em 0}\n\
         th,td{border:1px solid #d1d5db;padding:.25em .6em}\n\
         th{background:#f3f4f6}.r{text-align:right}.c{text-align:center}.l{text-align:left}\n\
         .warn{color:#b45309}\n\
         svg{max-width:100%;height:auto}\n\
         nav#toc ul{list-style:none;padding:0;margin:.5em 0}\n\
         nav#toc li{display:inline-block;margin-right:1.2em}\n\
         </style>\n</head>\n<body>\n",
    );
    out.push_str(&format!("<h1>{}</h1>\n", esc(title)));
    if !subtitle.is_empty() {
        out.push_str(&format!("<p>{}</p>\n", esc(subtitle)));
    }
    out.push_str("<nav id=\"toc\"><ul>\n");
    for s in sections {
        out.push_str(&format!(
            "<li><a href=\"#{}\">{}</a></li>\n",
            s.id,
            esc(s.title)
        ));
    }
    out.push_str("</ul></nav>\n");
    for s in sections {
        out.push_str(&s.html);
    }
    out.push_str("</body>\n</html>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_escapes_and_aligns() {
        let t = table(
            &[("name <&>", Align::Left), ("n", Align::Right)],
            &[vec!["a\"b".to_string(), "1".to_string()]],
        );
        assert!(t.contains("name &lt;&amp;&gt;"));
        assert!(t.contains("a&quot;b"));
        assert!(t.contains("<td class=\"r\">1</td>"));
    }

    #[test]
    fn page_is_deterministic_and_self_contained() {
        let sections = vec![section("x", "X <section>", "<p>body</p>\n".to_string())];
        let a = page("observatory", "demo store", &sections);
        assert_eq!(a, page("observatory", "demo store", &sections));
        assert!(a.starts_with("<!DOCTYPE html>"));
        assert!(a.ends_with("</html>\n"));
        assert!(a.contains("X &lt;section&gt;"));
        assert!(
            !a.contains("http://") || a.contains("www.w3.org"),
            "no external assets"
        );
        assert!(!a.contains("<script"), "no scripts");
    }

    #[test]
    fn page_toc_links_every_section_anchor() {
        let sections = vec![
            section("alpha", "Alpha", "<p>a</p>\n".to_string()),
            section("beta", "Beta", "<p>b</p>\n".to_string()),
        ];
        let a = page("observatory", "", &sections);
        assert!(a.contains("<nav id=\"toc\">"));
        for s in &sections {
            assert!(a.contains(&format!("<a href=\"#{}\">", s.id)));
            assert!(a.contains(&format!("<section id=\"{}\">", s.id)));
        }
        // The TOC lists sections in page order.
        let toc_alpha = a.find("href=\"#alpha\"").unwrap();
        let toc_beta = a.find("href=\"#beta\"").unwrap();
        assert!(toc_alpha < toc_beta);
    }

    #[test]
    fn pareto_section_inlines_the_chart_and_table() {
        let entries = vec![vmv_sweep::ParetoEntry {
            name: "2w/vu1".to_string(),
            cost: 10.0,
            cycles: 2000,
            benchmarks: 2,
            on_frontier: true,
        }];
        let s = pareto_section("demo", &entries);
        assert!(s.html.contains("<svg "), "chart inlined");
        assert!(s.html.contains("<td class=\"l\">2w/vu1</td>"));
        assert!(s.html.contains("id=\"pareto\""));
        assert_eq!(s.id, "pareto");
    }
}
