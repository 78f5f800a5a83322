//! Reconstruction of every figure and table of the paper's evaluation from a
//! measurement [`Suite`].
//!
//! * Table 1 — vector regions and the fraction of execution time they
//!   represent on the 2-issue µSIMD-VLIW machine;
//! * Figure 1 — scalability of scalar vs vector regions on µSIMD-VLIW
//!   machines (speed-up over the 2-issue µSIMD-VLIW);
//! * Figure 5 — speed-up of the vector regions over the 2-issue VLIW vector
//!   regions, for all ten configurations (perfect and realistic memory);
//! * Figure 6 — speed-up of complete applications over the 2-issue VLIW,
//!   plus the cross-benchmark average;
//! * Figure 7 — dynamic operation count normalised to the base VLIW, split
//!   per region;
//! * Table 3 — operations / micro-operations per cycle and speed-up for the
//!   scalar regions, vector regions and whole applications.

use std::collections::BTreeMap;

use vmv_isa::RegionId;
use vmv_kernels::Benchmark;

use crate::experiment::Suite;

// Geometric helpers --------------------------------------------------------

fn ratio(reference: u64, value: u64) -> f64 {
    if value == 0 {
        0.0
    } else {
        reference as f64 / value as f64
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

// ---------------------------------------------------------------- Table 1

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    pub benchmark: Benchmark,
    /// Fraction (0..1) of execution time spent in the vector regions on the
    /// 2-issue µSIMD-VLIW configuration.
    pub vectorization: f64,
    pub regions: Vec<String>,
}

/// Compute Table 1 from a realistic-memory suite.
pub fn table1(suite: &Suite) -> Vec<Table1Row> {
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let outcome = suite.get("2w +uSIMD", bench);
            Table1Row {
                benchmark: bench,
                vectorization: outcome
                    .map(|o| o.stats.vectorization_fraction())
                    .unwrap_or(0.0),
                regions: bench
                    .vector_region_names()
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            }
        })
        .collect()
}

/// Render Table 1 as text.
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out =
        String::from("Table 1: vector regions and % of execution time (2-issue +uSIMD)\n");
    out.push_str(&format!(
        "{:<12} {:>8}  {}\n",
        "Benchmark", "%Vect", "Vector regions"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<12} {:>7.2}%  {}\n",
            r.benchmark.name(),
            100.0 * r.vectorization,
            r.regions.join(", ")
        ));
    }
    out
}

// --------------------------------------------------------------- Figure 1

/// Speed-ups of one benchmark on the 2/4/8-issue µSIMD machines relative to
/// the 2-issue µSIMD machine, split by application / scalar / vector
/// regions (one entry per issue width, in the order 2, 4, 8).
#[derive(Debug, Clone)]
pub struct Fig1Series {
    pub benchmark: Benchmark,
    pub application: Vec<f64>,
    pub scalar_regions: Vec<f64>,
    pub vector_regions: Vec<f64>,
}

/// Compute Figure 1.
pub fn fig1(suite: &Suite) -> Vec<Fig1Series> {
    let widths = ["2w +uSIMD", "4w +uSIMD", "8w +uSIMD"];
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let base = suite
                .get(widths[0], bench)
                .expect("2-issue µSIMD run present");
            let mut series = Fig1Series {
                benchmark: bench,
                application: Vec::new(),
                scalar_regions: Vec::new(),
                vector_regions: Vec::new(),
            };
            for w in widths {
                let o = suite.get(w, bench).expect("µSIMD run present");
                series
                    .application
                    .push(ratio(base.stats.cycles(), o.stats.cycles()));
                series
                    .scalar_regions
                    .push(ratio(base.stats.scalar().cycles, o.stats.scalar().cycles));
                series
                    .vector_regions
                    .push(ratio(base.stats.vector().cycles, o.stats.vector().cycles));
            }
            series
        })
        .collect()
}

/// Aggregate scalability statistics quoted in §2 of the paper.
#[derive(Debug, Clone, Copy)]
pub struct Fig1Summary {
    /// Average scalar-region speed-up going from 2- to 4-issue.
    pub scalar_2_to_4: f64,
    /// Average scalar-region speed-up going from 4- to 8-issue.
    pub scalar_4_to_8: f64,
    /// Average vector-region speed-up of the 8-issue machine over 2-issue.
    pub vector_at_8: f64,
    /// Average vectorisation percentage (Table 1).
    pub avg_vectorization: f64,
}

/// Compute the §2 aggregate numbers from Figure 1 data plus Table 1.
pub fn fig1_summary(series: &[Fig1Series], t1: &[Table1Row]) -> Fig1Summary {
    let s24: Vec<f64> = series
        .iter()
        .map(|s| s.scalar_regions[1] / s.scalar_regions[0])
        .collect();
    let s48: Vec<f64> = series
        .iter()
        .map(|s| s.scalar_regions[2] / s.scalar_regions[1])
        .collect();
    let v8: Vec<f64> = series.iter().map(|s| s.vector_regions[2]).collect();
    Fig1Summary {
        scalar_2_to_4: mean(&s24),
        scalar_4_to_8: mean(&s48),
        vector_at_8: mean(&v8),
        avg_vectorization: mean(&t1.iter().map(|r| r.vectorization).collect::<Vec<_>>()),
    }
}

/// Render Figure 1 as text.
pub fn render_fig1(series: &[Fig1Series]) -> String {
    let mut out =
        String::from("Figure 1: scalability of scalar and vector regions on uSIMD-VLIW (speed-up over 2w +uSIMD)\n");
    out.push_str(&format!(
        "{:<12} {:>22} {:>22} {:>22}\n",
        "Benchmark", "application 2/4/8w", "scalar regions 2/4/8w", "vector regions 2/4/8w"
    ));
    for s in series {
        let f = |v: &Vec<f64>| format!("{:.2} / {:.2} / {:.2}", v[0], v[1], v[2]);
        out.push_str(&format!(
            "{:<12} {:>22} {:>22} {:>22}\n",
            s.benchmark.name(),
            f(&s.application),
            f(&s.scalar_regions),
            f(&s.vector_regions)
        ));
    }
    out
}

// ------------------------------------------------------------ Figures 5/6

/// Speed-up of every configuration over the 2-issue VLIW, per benchmark.
#[derive(Debug, Clone)]
pub struct SpeedupChart {
    /// What the speed-up is measured on (vector regions or whole
    /// application).
    pub scope: &'static str,
    /// Configuration names, in Table 2 order.
    pub configs: Vec<String>,
    /// `values[benchmark][config]` speed-ups.
    pub values: BTreeMap<Benchmark, Vec<f64>>,
}

fn speedup_chart(suite: &Suite, scope: &'static str, vector_only: bool) -> SpeedupChart {
    let configs: Vec<String> = vmv_machine::all_configs()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    let mut values = BTreeMap::new();
    for &bench in &Benchmark::ALL {
        let base = suite.get("2w VLIW", bench).expect("baseline run present");
        let base_cycles = if vector_only {
            base.stats.vector().cycles
        } else {
            base.stats.cycles()
        };
        let mut row = Vec::new();
        for cfg in &configs {
            let o = suite.get(cfg, bench).expect("configuration run present");
            let cycles = if vector_only {
                o.stats.vector().cycles
            } else {
                o.stats.cycles()
            };
            row.push(ratio(base_cycles, cycles));
        }
        values.insert(bench, row);
    }
    SpeedupChart {
        scope,
        configs,
        values,
    }
}

/// Figure 5 (a or b depending on the suite's memory model): speed-up of the
/// vector regions over the 2-issue VLIW vector regions.
pub fn fig5(suite: &Suite) -> SpeedupChart {
    speedup_chart(suite, "vector regions", true)
}

/// Figure 6: speed-up of complete applications over the 2-issue VLIW.
pub fn fig6(suite: &Suite) -> SpeedupChart {
    speedup_chart(suite, "complete application", false)
}

/// Per-configuration average across benchmarks (the AVERAGE panel of
/// Figure 6).
pub fn chart_average(chart: &SpeedupChart) -> Vec<f64> {
    let n = chart.configs.len();
    (0..n)
        .map(|i| mean(&chart.values.values().map(|row| row[i]).collect::<Vec<_>>()))
        .collect()
}

/// Render a speed-up chart as text.
pub fn render_chart(chart: &SpeedupChart) -> String {
    let mut out = format!("Speed-up over 2w VLIW ({})\n", chart.scope);
    out.push_str(&format!("{:<12}", "Benchmark"));
    for c in &chart.configs {
        out.push_str(&format!("{:>13}", c));
    }
    out.push('\n');
    for (bench, row) in &chart.values {
        out.push_str(&format!("{:<12}", bench.name()));
        for v in row {
            out.push_str(&format!("{:>13.2}", v));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<12}", "AVERAGE"));
    for v in chart_average(chart) {
        out.push_str(&format!("{:>13.2}", v));
    }
    out.push('\n');
    out
}

// --------------------------------------------------------------- Figure 7

/// Normalised dynamic operation counts, split per region.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    pub benchmark: Benchmark,
    /// For each of the three ISAs (VLIW, +µSIMD, +Vector on the 2-issue
    /// machines): operation count per region (R0 scalar, then R1..),
    /// normalised to the total operation count of the base VLIW.
    pub per_isa: Vec<(String, Vec<(RegionId, f64)>)>,
}

/// Compute Figure 7 from a realistic-memory suite (2-issue machines).
pub fn fig7(suite: &Suite) -> Vec<Fig7Row> {
    let isas = ["2w VLIW", "2w +uSIMD", "2w +Vector2"];
    Benchmark::ALL
        .iter()
        .map(|&bench| {
            let base_ops = suite
                .get("2w VLIW", bench)
                .expect("baseline")
                .stats
                .total()
                .operations;
            let per_isa = isas
                .iter()
                .map(|cfg| {
                    let o = suite.get(cfg, bench).expect("run present");
                    let regions = o
                        .stats
                        .regions
                        .iter()
                        .map(|(id, st)| (*id, st.operations as f64 / base_ops.max(1) as f64))
                        .collect();
                    (cfg.to_string(), regions)
                })
                .collect();
            Fig7Row {
                benchmark: bench,
                per_isa,
            }
        })
        .collect()
}

/// §5.3 aggregates: operation-count reduction of the Vector ISA relative to
/// the µSIMD ISA, in the vector regions and in the whole application.
#[derive(Debug, Clone, Copy)]
pub struct Fig7Summary {
    pub vector_region_reduction: f64,
    pub application_reduction: f64,
}

/// Compute the §5.3 aggregate numbers.
pub fn fig7_summary(suite: &Suite) -> Fig7Summary {
    let mut region_red = Vec::new();
    let mut app_red = Vec::new();
    for &bench in &Benchmark::ALL {
        let usimd = suite.get("2w +uSIMD", bench).expect("usimd run");
        let vector = suite.get("2w +Vector2", bench).expect("vector run");
        let u_vec = usimd.stats.vector().operations.max(1) as f64;
        let v_vec = vector.stats.vector().operations as f64;
        region_red.push(1.0 - v_vec / u_vec);
        let u_all = usimd.stats.total().operations.max(1) as f64;
        let v_all = vector.stats.total().operations as f64;
        app_red.push(1.0 - v_all / u_all);
    }
    Fig7Summary {
        vector_region_reduction: mean(&region_red),
        application_reduction: mean(&app_red),
    }
}

/// Render Figure 7 as text.
pub fn render_fig7(rows: &[Fig7Row]) -> String {
    let mut out = String::from(
        "Figure 7: dynamic operation count normalised to the 2-issue VLIW (per region)\n",
    );
    for row in rows {
        out.push_str(&format!("{}\n", row.benchmark.name()));
        for (isa, regions) in &row.per_isa {
            let total: f64 = regions.iter().map(|(_, v)| v).sum();
            let detail: Vec<String> = regions
                .iter()
                .map(|(id, v)| format!("R{}={:.3}", id.0, v))
                .collect();
            out.push_str(&format!(
                "  {:<12} total={:.3}  {}\n",
                isa,
                total,
                detail.join(" ")
            ));
        }
    }
    out
}

// ---------------------------------------------------------------- Table 3

/// One row of Table 3 (one processor configuration).
#[derive(Debug, Clone)]
pub struct Table3Row {
    pub config: String,
    pub scalar_opc: f64,
    pub scalar_speedup: f64,
    pub vector_opc: f64,
    pub vector_micro_opc: f64,
    pub vector_speedup: f64,
    pub app_opc: f64,
    pub app_micro_opc: f64,
    pub app_speedup: f64,
}

/// Compute Table 3: averages across the six benchmarks for every
/// configuration, with speed-ups relative to the 2-issue VLIW.
pub fn table3(suite: &Suite) -> Vec<Table3Row> {
    let configs: Vec<String> = vmv_machine::all_configs()
        .iter()
        .map(|c| c.name.clone())
        .collect();
    configs
        .iter()
        .map(|cfg| {
            let mut scalar_opc = Vec::new();
            let mut scalar_sp = Vec::new();
            let mut vector_opc = Vec::new();
            let mut vector_uopc = Vec::new();
            let mut vector_sp = Vec::new();
            let mut app_opc = Vec::new();
            let mut app_uopc = Vec::new();
            let mut app_sp = Vec::new();
            for &bench in &Benchmark::ALL {
                let base = suite.get("2w VLIW", bench).expect("baseline");
                let o = suite.get(cfg, bench).expect("run present");
                scalar_opc.push(o.stats.scalar().opc());
                scalar_sp.push(ratio(base.stats.scalar().cycles, o.stats.scalar().cycles));
                vector_opc.push(o.stats.vector().opc());
                vector_uopc.push(o.stats.vector().micro_opc());
                vector_sp.push(ratio(base.stats.vector().cycles, o.stats.vector().cycles));
                app_opc.push(o.stats.total().opc());
                app_uopc.push(o.stats.total().micro_opc());
                app_sp.push(ratio(base.stats.cycles(), o.stats.cycles()));
            }
            Table3Row {
                config: cfg.clone(),
                scalar_opc: mean(&scalar_opc),
                scalar_speedup: mean(&scalar_sp),
                vector_opc: mean(&vector_opc),
                vector_micro_opc: mean(&vector_uopc),
                vector_speedup: mean(&vector_sp),
                app_opc: mean(&app_opc),
                app_micro_opc: mean(&app_uopc),
                app_speedup: mean(&app_sp),
            }
        })
        .collect()
}

/// Render Table 3 as text.
pub fn render_table3(rows: &[Table3Row]) -> String {
    let mut out = String::from(
        "Table 3: OPC / uOPC / speed-up per region class (averages over the six benchmarks)\n",
    );
    out.push_str(&format!(
        "{:<14} | {:>6} {:>6} | {:>6} {:>7} {:>6} | {:>6} {:>7} {:>6}\n",
        "Config", "s.OPC", "s.SP", "v.OPC", "v.uOPC", "v.SP", "a.OPC", "a.uOPC", "a.SP"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} | {:>6.2} {:>6.2} | {:>6.2} {:>7.2} {:>6.2} | {:>6.2} {:>7.2} {:>6.2}\n",
            r.config,
            r.scalar_opc,
            r.scalar_speedup,
            r.vector_opc,
            r.vector_micro_opc,
            r.vector_speedup,
            r.app_opc,
            r.app_micro_opc,
            r.app_speedup
        ));
    }
    out
}
