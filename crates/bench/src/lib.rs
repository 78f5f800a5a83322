//! Helper routines shared by the `repro`/`sweep`/`bench`/`report`/`verify`
//! binaries.

#![forbid(unsafe_code)]

pub mod args;

use vmv_core::Suite;

/// Render every table and figure of the paper from the two suites.
pub fn render_everything(perfect: &Suite, realistic: &Suite) -> String {
    let mut out = String::new();
    let t1 = vmv_core::table1(realistic);
    out.push_str(&vmv_core::render_table1(&t1));
    out.push('\n');

    let f1 = vmv_core::fig1(realistic);
    out.push_str(&vmv_core::render_fig1(&f1));
    let s = vmv_core::fig1_summary(&f1, &t1);
    out.push_str(&format!(
        "  section-2 aggregates: scalar 2->4w {:.2}x, scalar 4->8w {:.2}x, vector regions at 8w {:.2}x, avg vectorisation {:.1}%\n\n",
        s.scalar_2_to_4,
        s.scalar_4_to_8,
        s.vector_at_8,
        100.0 * s.avg_vectorization
    ));

    out.push_str("Figure 5a (perfect memory)\n");
    out.push_str(&vmv_core::render_chart(&vmv_core::fig5(perfect)));
    out.push('\n');
    out.push_str("Figure 5b (realistic memory)\n");
    out.push_str(&vmv_core::render_chart(&vmv_core::fig5(realistic)));
    out.push('\n');

    out.push_str("Figure 6 (complete applications, realistic memory)\n");
    out.push_str(&vmv_core::render_chart(&vmv_core::fig6(realistic)));
    out.push('\n');

    let f7 = vmv_core::fig7(realistic);
    out.push_str(&vmv_core::render_fig7(&f7));
    let s7 = vmv_core::fig7_summary(realistic);
    out.push_str(&format!(
        "  section-5.3 aggregates: vector executes {:.1}% fewer operations than uSIMD in the vector regions, {:.1}% fewer in the whole application\n\n",
        100.0 * s7.vector_region_reduction,
        100.0 * s7.application_reduction
    ));

    out.push_str(&vmv_core::render_table3(&vmv_core::table3(realistic)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_mem::MemoryModel;

    /// Every table and figure of the paper, as `repro all` prints them, must
    /// match the committed golden byte for byte.  Regenerate after an
    /// intentional change with `UPDATE_GOLDENS=1 cargo test -p vmv-bench
    /// --lib`.
    #[test]
    fn paper_output_matches_golden() {
        let perfect = Suite::run_all_configs(MemoryModel::Perfect).expect("perfect-memory suite");
        let realistic =
            Suite::run_all_configs(MemoryModel::Realistic).expect("realistic-memory suite");
        let actual = render_everything(&perfect, &realistic);
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../tests/golden/repro_all.txt");
        if std::env::var_os("UPDATE_GOLDENS").is_some() {
            std::fs::write(&path, &actual).expect("write golden");
            return;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!("missing golden repro_all.txt ({e}) — run with UPDATE_GOLDENS=1")
        });
        assert!(
            actual == expected,
            "the paper output drifted from tests/golden/repro_all.txt — if the change is \
             intentional, regenerate with `UPDATE_GOLDENS=1 cargo test -p vmv-bench --lib`"
        );
    }
}
