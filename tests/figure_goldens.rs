//! Golden text digests of every table and figure at test scale.
//!
//! The figure drivers share baselines and ladders through
//! `experiments::memo`; these digests were taken before that memo
//! existed, so they prove in one place that serving a product from the
//! memo leaves every rendered figure byte-identical. A digest changes
//! only when a model or a renderer changes on purpose — then re-pin it
//! from the printed value and say why in the change.

use beacon_core::experiments::common::WorkloadScale;
use beacon_core::experiments::{fig12, fig13, fig14, fig15, fig16, fig17, fig3, tables};
use beacon_sim::stats::Fnv64;

const PES: usize = 8;

/// FNV-64 of each section's rendered text at `WorkloadScale::test()`
/// and `PES` processing elements per module.
const GOLDEN: [(&str, u64); 9] = [
    ("table1", 0x056e_ef3d_9b63_4e12),
    ("table2", 0xb41b_719f_9683_289d),
    ("fig3", 0x9b9b_8693_0e2e_8fd0),
    ("fig12", 0x790b_4735_6ad1_3795),
    ("fig13", 0xfc84_3195_1cb6_abff),
    ("fig14", 0x4c42_212f_db05_d868),
    ("fig15", 0x4f1e_0071_9453_e6cc),
    ("fig16", 0x6396_86fd_c526_75aa),
    ("fig17", 0x1b28_a203_e46e_cc27),
];

fn render(section: &str) -> String {
    let scale = WorkloadScale::test();
    match section {
        "table1" => tables::table1(),
        "table2" => tables::table2(),
        "fig3" => fig3::run(&scale, PES).render(),
        "fig12" => fig12::run(&scale, PES).render(),
        "fig13" => fig13::run(&scale, PES).render(),
        "fig14" => fig14::run(&scale, PES).render(),
        "fig15" => fig15::run(&scale, PES).render(),
        "fig16" => fig16::run(&scale, PES).render(),
        "fig17" => fig17::run(&scale, PES).render(),
        other => unreachable!("unknown section {other}"),
    }
}

fn text_digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write_str(text);
    h.finish()
}

#[test]
fn every_section_renders_its_golden_text() {
    let mut diverged = Vec::new();
    for (section, golden) in GOLDEN {
        let got = text_digest(&render(section));
        if got != golden {
            diverged.push(format!("{section}: {got:#018x} != golden {golden:#018x}"));
        }
    }
    assert!(diverged.is_empty(), "{}", diverged.join("\n"));
}
