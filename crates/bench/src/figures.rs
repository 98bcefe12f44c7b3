//! Every table and figure of the paper's evaluation, each a function that
//! computes its [`Table`]s.
//!
//! [`FIGURES`] lists them once, by name: the `experiments` bin prints a
//! figure's tables (`cargo run --release -p ref-bench --bin experiments
//! -- <name>`) and regenerates `EXPERIMENTS.md`'s tables from the same
//! list. Every figure is deterministic (fixed seeds, index-placed
//! parallel results), so its tables are the same at every `--jobs`
//! width.

use std::collections::HashMap;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use ref_core::edgeworth::{BoxPoint, EdgeworthBox};
use ref_core::mechanism::{EqualSlowdown, MaxWelfare, Mechanism, ProportionalElasticity};
use ref_core::properties::FairnessReport;
use ref_core::resource::{Bundle, Capacity};
use ref_core::spl::max_gain_from_lying;
use ref_core::utility::{CobbDouglas, Leontief, Utility};
use ref_core::welfare::weighted_system_throughput;
use ref_sim::cache::partition_ways;
use ref_sim::config::{Bandwidth, CacheSize, PagePolicy, PlatformConfig};
use ref_solver::barrier::BarrierOptions;
use ref_solver::gp::{GeometricProgram, Monomial, Posynomial};
use ref_workloads::profiler::{profile, ProfilerOptions};
use ref_workloads::profiles::{by_name, Benchmark, PreferenceClass, BENCHMARKS};
use ref_workloads::suite::{all_mixes, eight_core_mixes, four_core_mixes, WorkloadMix};

use crate::pipeline::{capacity_for_agents, experiment_options, fit_benchmarks, fit_grid, fit_mix};
use crate::table::{Cell, Table};

/// A figure: computes its tables.
pub type Figure = fn() -> Vec<Table>;

/// Every figure, by the name `experiments <name>` prints it under.
pub const FIGURES: &[(&str, Figure)] = &[
    ("fig01_edgeworth", fig01_edgeworth),
    ("fig02_envy_free", fig02_envy_free),
    ("fig03_indifference", fig03_indifference),
    ("fig04_leontief", fig04_leontief),
    ("fig05_contract_curve", fig05_contract_curve),
    ("fig06_fair_set", fig06_fair_set),
    ("fig07_sharing_incentives", fig07_sharing_incentives),
    ("fig08_fit_quality", fig08_fit_quality),
    ("fig09_elasticities", fig09_elasticities),
    ("table2_workloads", table2_workloads),
    ("fig10_12_mechanism_pairs", fig10_12_mechanism_pairs),
    ("fig13_throughput_4core", fig13_throughput_4core),
    ("fig14_throughput_8core", fig14_throughput_8core),
    ("appendix_spl", appendix_spl),
    ("ablation_grid_density", ablation_grid_density),
    ("ablation_way_rounding", ablation_way_rounding),
    ("ablation_solver_tolerance", ablation_solver_tolerance),
    ("ablation_page_policy", ablation_page_policy),
    ("ablation_prefetcher", ablation_prefetcher),
];

fn num(v: f64, decimals: usize) -> Cell {
    Cell::Num(v, decimals)
}

fn cobb_douglas(elasticities: &[f64]) -> CobbDouglas {
    CobbDouglas::new(1.0, elasticities.to_vec()).expect("positive elasticities")
}

/// The running example of §3: 24 GB/s and 12 MB between `x^0.6 y^0.4`
/// and `x^0.2 y^0.8`.
fn edgeworth_box() -> EdgeworthBox {
    let (u1, u2) = (cobb_douglas(&[0.6, 0.4]), cobb_douglas(&[0.2, 0.8]));
    EdgeworthBox::new(u1, u2, capacity_for_agents(4)).expect("two agents, two resources")
}

fn class_letter(class: PreferenceClass) -> &'static str {
    match class {
        PreferenceClass::Cache => "C",
        PreferenceClass::Memory => "M",
    }
}

/// Figure 1: the Edgeworth box for the paper's running example.
///
/// The example feasible allocation from §3 (user 1 takes 6 GB/s + 8 MB,
/// leaving 18 GB/s + 4 MB), and both users' utilities on a coarse grid of
/// feasible allocations.
pub fn fig01_edgeworth() -> Vec<Table> {
    let eb = edgeworth_box();
    let box_caption = "Figure 1: Edgeworth box (24 GB/s memory bandwidth x 12 MB cache)";
    let mut example = Table::new(
        "example",
        format!("{box_caption}: the example feasible point"),
        "user | bandwidth (GB/s) | cache (MB)",
    );
    let p = BoxPoint { x: 6.0, y: 8.0 };
    let (x2, y2) = eb.complement(p);
    example.row("user 1", vec![num(p.x, 0), num(p.y, 0)]);
    example.row("user 2", vec![num(x2, 0), num(y2, 0)]);
    let ys: Vec<f64> = (0..=6).map(|j| 12.0 * j as f64 / 6.0).collect();
    let ys_mb: String = ys.iter().map(|y| format!(" | y1 = {y:.1} MB")).collect();
    let columns = format!("x1 (GB/s){ys_mb}");
    let grid = |name, u: &str, pick: fn((f64, f64)) -> f64| {
        let mut t = Table::new(name, format!("{box_caption}: {u}"), &columns);
        for x in (0..=6).map(|i| 24.0 * i as f64 / 6.0) {
            let us = ys
                .iter()
                .map(|&y| num(pick(eb.utilities(BoxPoint { x, y })), 3));
            t.row(format!("{x:.1}"), us.collect());
        }
        t
    };
    vec![
        example,
        grid(
            "u1",
            "u1 = x^0.6 y^0.4 (bursty, little reuse; e.g. canneal)",
            |u| u.0,
        ),
        grid(
            "u2",
            "u2 = x^0.2 y^0.8 (cache friendly; e.g. freqmine)",
            |u| u.1,
        ),
    ]
}

/// Figure 2: envy-free regions for each user in the Edgeworth box.
///
/// Samples the box on a fine grid and reports, per bandwidth column, the
/// cache interval in which each user is envy-free, plus the three
/// always-EF points the paper calls out (midpoint and the two corners).
pub fn fig02_envy_free() -> Vec<Table> {
    let eb = edgeworth_box();
    let mut regions = Table::new(
        "regions",
        "Figure 2: envy-free (EF) cache ranges per bandwidth column; user 1 is EF where \
         x^0.6 y^0.4 >= (24-x)^0.6 (12-y)^0.4, user 2 by the symmetric condition",
        "x1 (GB/s) | EF for 1: from (MB) | to (MB) | EF for 2: from (MB) | to (MB)",
    );
    let samples = 200;
    for i in (0..=24).step_by(2) {
        let x = i as f64;
        let mut cells = Vec::new();
        for ef in [EdgeworthBox::envy_free_for_1, EdgeworthBox::envy_free_for_2] {
            let ys: Vec<f64> = (0..=samples)
                .map(|j| 12.0 * j as f64 / samples as f64)
                .filter(|&y| ef(&eb, BoxPoint { x, y }))
                .collect();
            match (ys.first(), ys.last()) {
                (Some(lo), Some(hi)) => cells.extend([num(*lo, 2), num(*hi, 2)]),
                _ => cells.extend(["empty".into(), "empty".into()]),
            }
        }
        regions.row(format!("{x:.1}"), cells);
    }
    let mut always = Table::new(
        "always_ef",
        "Figure 2: the points EF for both users (§3.2)",
        "x1 (GB/s) | y1 (MB) | EF for both users",
    );
    for (x, y) in [(12.0, 6.0), (24.0, 0.0), (0.0, 12.0)] {
        let p = BoxPoint { x, y };
        let both = eb.envy_free_for_1(p) && eb.envy_free_for_2(p);
        always.row(format!("{x:.1}"), vec![num(y, 1), both.into()]);
    }
    vec![regions, always]
}

/// Figure 3: Cobb-Douglas indifference curves and marginal rates of
/// substitution for user 1.
///
/// Three indifference curves (I1 < I2 < I3), the MRS along the middle
/// curve (Eq. 9) demonstrating smooth substitution, and the paper's
/// substitution example.
pub fn fig03_indifference() -> Vec<Table> {
    let u1 = cobb_douglas(&[0.6, 0.4]);
    let levels = [[4.0, 2.0], [8.0, 4.0], [14.0, 7.0]].map(|b| u1.value_slice(&b));
    let caption = "Figure 3: Cobb-Douglas indifference curves, u1 = x^0.6 y^0.4";
    let mut curves = Table::new(
        "curves",
        caption,
        "x (GB/s) | I1: y (MB) | I2: y (MB) | I3: y (MB)",
    );
    for i in 1..=12 {
        let x = 2.0 * i as f64;
        let ys = levels.iter().map(|&l| match u1.indifference_y(l, x) {
            Ok(y) if y <= 12.0 => num(y, 3),
            _ => "-".into(),
        });
        curves.row(format!("{x:.1}"), ys.collect());
    }
    let mut mrs = Table::new(
        "mrs",
        "Figure 3: marginal rate of substitution along I2 (Eq. 9: (0.6/0.4) * y/x)",
        "x (GB/s) | y (MB) | MRS",
    );
    for i in 1..=6 {
        let x = 3.0 * i as f64;
        match u1.indifference_y(levels[1], x) {
            Ok(y) if y <= 12.0 => {
                let b = Bundle::new(vec![x, y]).expect("positive bundle");
                let m = u1.mrs(&b, 0, 1).expect("two resources");
                mrs.row(format!("{x:.1}"), vec![num(y, 3), num(m, 3)]);
            }
            _ => {}
        }
    }
    let mut substitution = Table::new(
        "substitution",
        "Figure 3: the paper's substitution example",
        "bundle | u1",
    );
    for (label, b) in [
        ("(4 GB/s, 1 MB)", [4.0, 1.0]),
        ("(1 GB/s, 8 MB)", [1.0, 8.0]),
    ] {
        substitution.row(label, vec![num(u1.value_slice(&b), 4)]);
    }
    vec![curves, mrs, substitution]
}

/// Figure 4: Leontief (perfect-complement) indifference curves.
///
/// The L-shaped level sets of `u = min(x, 2y)` (the paper's Eq. 8
/// example): extra resources beyond the 2:1 ratio add no utility, and
/// the MRS is 0 or infinite — the contrast motivating Cobb-Douglas.
pub fn fig04_leontief() -> Vec<Table> {
    let u = Leontief::new(vec![1.0, 0.5]).expect("positive demands");
    let caption = "Figure 4: Leontief indifference curves, u = min(x, 2y)";
    let mut levels = Table::new(
        "levels",
        format!("{caption}: corner points of the L-shaped level sets"),
        "u | corner x (GB/s) | corner y (MB)",
    );
    for level in [2.0, 4.0, 8.0, 16.0] {
        levels.row(
            format!("{level:.1}"),
            vec![num(level, 1), num(level / 2.0, 1)],
        );
    }
    let mut waste = Table::new(
        "no_substitution",
        format!("{caption}: resources beyond the 2:1 ratio are wasted"),
        "bundle | u",
    );
    for (x, y) in [(4.0, 2.0), (10.0, 2.0), (4.0, 10.0)] {
        let label = format!("({x:.1} GB/s, {y:.1} MB)");
        waste.row(label, vec![num(u.value_slice(&[x, y]), 3)]);
    }
    let mut along = Table::new(
        "along_y",
        format!("{caption}: utility along y at fixed x = 4 GB/s"),
        "y (MB) | u",
    );
    for j in 1..=6 {
        let y = j as f64;
        along.row(format!("{y:.1}"), vec![num(u.value_slice(&[4.0, y]), 3)]);
    }
    vec![levels, waste, along]
}

/// Figure 5: the contract curve — all Pareto-efficient allocations.
///
/// The curve where the users' marginal rates of substitution are equal
/// (Eq. 10: (0.6/0.4)(y1/x1) = (0.2/0.8)(y2/x2)), with the tangency
/// asserted at every point. Both origins are PE too (one user at zero
/// utility).
pub fn fig05_contract_curve() -> Vec<Table> {
    let eb = edgeworth_box();
    let mut curve = Table::new(
        "curve",
        "Figure 5: contract curve (Pareto-efficient set)",
        "x1 (GB/s) | y1 (MB) | MRS1 | MRS2 | u1",
    );
    for p in eb.contract_curve(23) {
        let (x2, y2) = eb.complement(p);
        let b1 = Bundle::new(vec![p.x, p.y]).expect("interior point");
        let b2 = Bundle::new(vec![x2, y2]).expect("interior point");
        let m1 = eb.u1().mrs(&b1, 0, 1).expect("two resources");
        let m2 = eb.u2().mrs(&b2, 0, 1).expect("two resources");
        assert!((m1 - m2).abs() < 1e-9 * m1.max(m2), "MRS tangency");
        let cells = vec![
            num(p.y, 3),
            num(m1, 4),
            num(m2, 4),
            num(eb.utilities(p).0, 3),
        ];
        curve.row(format!("{:.2}", p.x), cells);
    }
    vec![curve]
}

/// Rows saying where `points` lie and whether each is fair (EF for both
/// users and on the contract curve).
fn fair_points(eb: &EdgeworthBox, caption: &str, points: &[(&str, BoxPoint, usize)]) -> Table {
    let mut t = Table::new(
        "points",
        caption,
        "point | x1 (GB/s) | y1 (MB) | EF1 | EF2 | PE | SI",
    );
    for &(label, p, decimals) in points {
        let (ef1, ef2) = (eb.envy_free_for_1(p), eb.envy_free_for_2(p));
        let pe = eb.is_on_contract_curve(p, 1e-9);
        let verdicts = [ef1, ef2, pe, eb.sharing_incentives(p)].map(Cell::from);
        let mut cells = vec![num(p.x, decimals), num(p.y, decimals)];
        cells.extend(verdicts);
        t.row(label, cells);
    }
    t
}

/// Figure 6: the fair set — the intersection of both users' envy-free
/// regions with the contract curve — and the REF allocation inside it.
pub fn fig06_fair_set() -> Vec<Table> {
    let eb = edgeworth_box();
    let caption = "Figure 6: fair allocations = envy-free AND Pareto-efficient";
    let curve = eb.contract_curve(400);
    let fair = eb.fair_set(400, false);
    let mut samples = Table::new("samples", caption, "set | samples");
    samples.row("contract curve", vec![num(curve.len() as f64, 0)]);
    samples.row("fair (EF + PE)", vec![num(fair.len() as f64, 0)]);
    let (lo, hi) = (fair[0], fair[fair.len() - 1]);
    let ends = [("fair segment start", lo, 2), ("fair segment end", hi, 2)];
    let points = [&ends[..], &[("REF allocation", eb.ref_allocation(), 1)]].concat();
    let points = fair_points(&eb, "Figure 6: the fair segment's ends and REF", &points);
    let mut set = Table::new(
        "fair_set",
        "Figure 6: every twelfth point of the fair segment",
        "x1 (GB/s) | y1 (MB) | u1 | u2",
    );
    for p in fair.iter().step_by((fair.len() / 12).max(1)) {
        let (u1, u2) = eb.utilities(*p);
        set.row(
            format!("{:.2}", p.x),
            vec![num(p.y, 3), num(u1, 3), num(u2, 3)],
        );
    }
    vec![samples, points, set]
}

/// Figure 7: sharing incentives further constrain the fair set.
///
/// Compares the fair (EF + PE) segment of the contract curve with and
/// without the SI constraint (Eqs. 4–5), and shows the REF point
/// satisfies all three while the equal split is not PE.
pub fn fig07_sharing_incentives() -> Vec<Table> {
    let eb = edgeworth_box();
    let caption = "Figure 7: sharing incentives (SI) shrink the fair set";
    let mut segments = Table::new(
        "segments",
        format!("{caption}: samples of 1000 and segment bounds"),
        "set | samples | x1 from (GB/s) | x1 to | y1 from (MB) | y1 to",
    );
    for (label, si) in [("fair (EF + PE)", false), ("fair + SI", true)] {
        let set = eb.fair_set(1000, si);
        let mut cells = vec![num(set.len() as f64, 0)];
        match (set.first(), set.last()) {
            (Some(a), Some(b)) => cells.extend([a.x, b.x, a.y, b.y].map(|v| num(v, 2))),
            _ => cells.extend(["empty"; 4].map(Cell::from)),
        }
        segments.row(label, cells);
    }
    let equal = BoxPoint { x: 12.0, y: 6.0 };
    let points = [
        ("REF point", eb.ref_allocation(), 1),
        ("equal split", equal, 0),
    ];
    vec![segments, fair_points(&eb, caption, &points)]
}

/// Figure 8 (and Table 1): Cobb-Douglas fit quality.
///
/// - Table 1: the simulated platform parameters.
/// - Fig. 8a: coefficient of determination (R-squared) for all 28
///   workloads.
/// - Fig. 8b: simulated vs fitted IPC for representative high-R-squared
///   workloads (ferret, fmm).
/// - Fig. 8c: the same for low-R-squared workloads (radiosity,
///   string_match).
pub fn fig08_fit_quality() -> Vec<Table> {
    let p = PlatformConfig::asplos14();
    let list = |v: Vec<String>| Cell::from(v.join(", "));
    let mut platform = Table::new(
        "platform",
        "Table 1: platform parameters",
        "parameter | value",
    );
    for (label, value) in [
        (
            "core clock (GHz, out-of-order)",
            num(p.core.clock_hz / 1e9, 0),
        ),
        ("issue/commit width", num(f64::from(p.core.issue_width), 0)),
        ("MSHRs", num(p.core.mshr_entries as f64, 0)),
        ("L1 size", p.l1.size.to_string().into()),
        ("L1 ways", num(p.l1.ways as f64, 0)),
        ("L1 block (bytes)", num(p.l1.block_bytes as f64, 0)),
        ("L1 latency (cycles)", num(p.l1.latency_cycles as f64, 0)),
        (
            "L2 sizes",
            list(PlatformConfig::l2_sweep().map(|c| c.to_string()).to_vec()),
        ),
        ("L2 ways", num(p.l2.ways as f64, 0)),
        ("L2 block (bytes)", num(p.l2.block_bytes as f64, 0)),
        ("L2 latency (cycles)", num(p.l2.latency_cycles as f64, 0)),
        (
            "DRAM bandwidths",
            list(
                PlatformConfig::bandwidth_sweep()
                    .map(|b| b.to_string())
                    .to_vec(),
            ),
        ),
        (
            "DRAM page policy",
            format!("{:?}", p.dram.page_policy).into(),
        ),
        (
            "DRAM ranks x banks per rank",
            format!("{} x {}", p.dram.ranks, p.dram.banks_per_rank).into(),
        ),
    ] {
        platform.row(label, vec![value]);
    }

    let refs: Vec<&Benchmark> = BENCHMARKS.iter().collect();
    let fits = fit_benchmarks(&refs, &experiment_options());
    let mut r2 = Table::new(
        "r_squared",
        "Figure 8a: coefficient of determination per workload",
        "workload | R²",
    );
    for f in &fits {
        r2.row(f.name.clone(), vec![num(f.r_squared, 3)]);
    }
    let good = fits.iter().filter(|f| f.r_squared >= 0.7).count();
    let mut summary = Table::new(
        "fit_summary",
        "Figure 8a: workloads by fit quality (paper: most in 0.7-1.0)",
        "fit | workloads",
    );
    summary.row("R² >= 0.7", vec![num(good as f64, 0)]);
    summary.row("all", vec![num(fits.len() as f64, 0)]);

    let mut tables = vec![platform, r2, summary];
    // The paper's example workloads (DESIGN §3); each caption gives the R²
    // measured here, which need not match the paper's label.
    for (fig, example, name) in [
        ("8b", "high", "ferret"),
        ("8b", "high", "fmm"),
        ("8c", "low", "radiosity"),
        ("8c", "low", "string_match"),
    ] {
        let f = fits
            .iter()
            .find(|f| f.name == name)
            .expect("a fitted workload");
        let caption = format!(
            "Figure {fig}: {name}, the paper's {example}-R² example (measured R² = {:.3}): \
             simulated vs fitted IPC over the 25 configurations",
            f.r_squared
        );
        let columns = "bandwidth (GB/s) | cache (MB) | simulated IPC | fitted IPC";
        let mut t = Table::new(name, caption, columns);
        for (pt, est) in f.grid.points.iter().zip(&f.predictions) {
            let cells = vec![num(pt.cache.mib_f64(), 3), num(pt.ipc, 3), num(*est, 3)];
            t.row(format!("{:.1}", pt.bandwidth.gb_per_sec()), cells);
        }
        tables.push(t);
    }
    tables
}

/// Figure 9: re-scaled resource elasticities and the C/M classification.
///
/// For every workload, the re-scaled cache and bandwidth elasticities
/// (Eq. 12) and the derived preference class — `C` when
/// `alpha_cache > 0.5`, `M` otherwise — against the paper's class.
pub fn fig09_elasticities() -> Vec<Table> {
    let refs: Vec<&Benchmark> = BENCHMARKS.iter().collect();
    let mut t = Table::new(
        "elasticities",
        "Figure 9: re-scaled elasticities (Eq. 12) and C/M classes",
        "workload | α_cache | α_mem | class | expected",
    );
    let mut agree = 0;
    for (b, f) in BENCHMARKS
        .iter()
        .zip(fit_benchmarks(&refs, &experiment_options()))
    {
        let (a_mem, a_cache) = f.rescaled_elasticities();
        let expected = class_letter(b.expected_class);
        agree += usize::from(f.class() == expected);
        let cells = vec![
            num(a_cache, 3),
            num(a_mem, 3),
            f.class().into(),
            expected.into(),
        ];
        t.row(f.name, cells);
    }
    let mut agreement = Table::new(
        "agreement",
        "Figure 9: classification agreement with the paper",
        "workloads | count",
    );
    agreement.row("class as the paper's", vec![num(agree as f64, 0)]);
    agreement.row("all", vec![num(BENCHMARKS.len() as f64, 0)]);
    vec![t, agreement]
}

/// Table 2: the multiprogrammed workload mixes and their C/M composition.
///
/// Each mix's members with the paper's annotation and the fitted
/// classification (`EXPERIMENTS.md` names the two mixes where the
/// paper's own annotation disagrees with its §5.3 classification).
pub fn table2_workloads() -> Vec<Table> {
    let mut names: Vec<&'static str> = Vec::new();
    for mix in all_mixes() {
        for name in mix.members {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    let benches: Vec<&Benchmark> = names.iter().map(|n| by_name(n).expect("known")).collect();
    let fits = fit_benchmarks(&benches, &experiment_options());
    let class: HashMap<&str, &str> = names
        .iter()
        .copied()
        .zip(fits.iter().map(|f| f.class()))
        .collect();
    let mut t = Table::new(
        "mixes",
        "Table 2: workload characterization",
        "mix | paper | fitted | members (fitted class)",
    );
    for mix in all_mixes() {
        let c = mix.members.iter().filter(|m| class[*m] == "C").count();
        let members: Vec<String> = mix
            .members
            .iter()
            .map(|m| format!("{m} {}", class[m]))
            .collect();
        let fitted = format!("{c}C-{}M", mix.members.len() - c);
        t.row(
            mix.id,
            vec![
                mix.paper_annotation.into(),
                fitted.into(),
                members.join(", ").into(),
            ],
        );
    }
    vec![t]
}

/// Figures 10-12: equal slowdown vs proportional elasticity on three
/// two-application case studies, on the pair studies' 24 GB/s and 12 MB
/// chip (§5.4).
///
/// - Fig. 10: histogram (C) + dedup (M) — equal slowdown happens to be
///   fair.
/// - Fig. 11: barnes (C) + canneal (M) — equal slowdown violates SI and EF
///   for canneal.
/// - Fig. 12: freqmine (C) + linear_regression (C) — equal slowdown
///   violates SI and EF for freqmine.
///
/// For each pair and mechanism: each agent's share of total capacity,
/// whether it has its sharing incentive, whom it envies, and whether the
/// allocation is PE (checked at a 1e-3 optimization round-off tolerance).
pub fn fig10_12_mechanism_pairs() -> Vec<Table> {
    let opts = experiment_options();
    let capacity = capacity_for_agents(4);
    let mut fits = Table::new(
        "fits",
        "Figures 10-12: the pairs' fitted re-scaled elasticities",
        "workload | α_mem | α_cache | class",
    );
    let mut tables = Vec::new();
    for (name, fig, names, kind) in [
        ("fig10", "10", ["histogram", "dedup"], "C-M"),
        ("fig11", "11", ["barnes", "canneal"], "C-M"),
        ("fig12", "12", ["freqmine", "linear_regression"], "C-C"),
    ] {
        let benches = names.map(|n| by_name(n).expect("known workload"));
        let pair = fit_benchmarks(&benches, &opts);
        for f in &pair {
            let (a_mem, a_cache) = f.rescaled_elasticities();
            fits.row(
                f.name.clone(),
                vec![num(a_mem, 3), num(a_cache, 3), f.class().into()],
            );
        }
        let agents: Vec<CobbDouglas> = pair.iter().map(|f| f.utility.clone()).collect();
        let caption = format!("Figure {fig}: {} + {} ({kind} pair)", names[0], names[1]);
        let columns = "allocation | bandwidth (%) | cache (%) | SI | EF | PE";
        let mut t = Table::new(name, caption, columns);
        let mechanisms: [&dyn Mechanism; 2] = [&EqualSlowdown::new(), &ProportionalElasticity];
        for m in mechanisms {
            let alloc = m.allocate(&agents, &capacity).expect("the pair allocates");
            let report = FairnessReport::check_with_tolerance(&agents, &alloc, &capacity, 1e-3);
            for (i, share) in alloc.shares(&capacity).iter().enumerate() {
                let si = !report.si_violations.iter().any(|v| v.agent == i);
                let ef = match report.envy_edges.iter().find(|e| e.envious == i) {
                    Some(e) => format!("envies {}", names[e.envied]).into(),
                    None => Cell::from(true),
                };
                let mut cells = vec![num(share[0] * 100.0, 1), num(share[1] * 100.0, 1)];
                cells.extend([si.into(), ef, report.pareto_efficient.into()]);
                t.row(format!("{}: {}", m.name(), names[i]), cells);
            }
        }
        tables.push(t);
    }
    tables.insert(0, fits);
    tables
}

/// Weighted system throughput (Eq. 17) of the four §5.5 policies on
/// `mixes`, on a `cores`-agent machine.
fn throughput(name: &'static str, caption: &str, mixes: Vec<WorkloadMix>, cores: usize) -> Table {
    let opts = experiment_options();
    let capacity = capacity_for_agents(cores);
    let mechanisms: [&dyn Mechanism; 4] = [
        &MaxWelfare::with_fairness(),
        &ProportionalElasticity,
        &MaxWelfare::without_fairness(),
        &EqualSlowdown::new(),
    ];
    let names: String = mechanisms
        .iter()
        .map(|m| format!(" | {}", m.name()))
        .collect();
    let ratios = "1 - with / without fairness (%) | proportional / with fairness - 1 (%) \
                  | proportional / equal slowdown - 1 (%)";
    let mut t = Table::new(name, caption, &format!("mix{names} | {ratios}"));
    for mix in mixes {
        let agents: Vec<CobbDouglas> = fit_mix(&mix, &opts)
            .into_iter()
            .map(|f| f.utility)
            .collect();
        let w: Vec<f64> = mechanisms
            .iter()
            .map(|m| {
                let alloc = m.allocate(&agents, &capacity).expect("the mix allocates");
                weighted_system_throughput(&agents, &alloc, &capacity)
            })
            .collect();
        let mut cells: Vec<Cell> = w.iter().map(|v| num(*v, 4)).collect();
        cells.push(num((1.0 - w[0] / w[2]) * 100.0, 1));
        cells.push(num((w[1] / w[0] - 1.0) * 100.0, 2));
        cells.push(num((w[1] / w[3] - 1.0) * 100.0, 1));
        t.row(format!("{} ({})", mix.id, mix.paper_annotation), cells);
    }
    t
}

/// Figure 13: weighted system throughput on the 4-core system.
///
/// For each 4-application mix WD1-WD5 (Table 2) and each of the four
/// allocation policies of §5.5, the weighted system throughput (Eq. 17),
/// and three ratios: `1 - with / without fairness` compares the two
/// max-welfare mechanisms (negative where the fair one is ahead: the
/// mechanism without fairness maximizes the Nash product, not this sum,
/// so it is no upper bound on it), `proportional / with fairness - 1`
/// the two fair mechanisms, and `proportional / equal slowdown - 1`.
/// Expected shape: the two fair mechanisms coincide, and the cost of
/// fairness stays under ~10%.
pub fn fig13_throughput_4core() -> Vec<Table> {
    let caption = "Figure 13: weighted system throughput, 4-core system (24 GB/s, 12 MB)";
    vec![throughput("throughput", caption, four_core_mixes(), 4)]
}

/// Figure 14: weighted system throughput on the 8-core system.
///
/// As Figure 13 but for the eight-application mixes WD6-WD10 on a
/// 48 GB/s + 24 MB machine. Expected shape: the cost of fairness under
/// ~10%, and equal slowdown degrading relative to proportional elasticity
/// as the number of agents grows (the opportunity cost of favoring the
/// least satisfied user).
pub fn fig14_throughput_8core() -> Vec<Table> {
    let caption = "Figure 14: weighted system throughput, 8-core system (48 GB/s, 24 MB)";
    vec![throughput("throughput", caption, eight_core_mixes(), 8)]
}

/// The value at quantile `q` of `values` by nearest rank (the
/// `ceil(q n)`-th smallest).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    values[((q * values.len() as f64).ceil() as usize).max(1) - 1]
}

/// Random markets [`appendix_spl`] draws per system size.
const SPL_MARKETS: usize = 200;

/// Appendix A / §4.3: strategy-proofness in the large.
///
/// The paper's experiment as a distribution: for each system size,
/// 200 markets (`SPL_MARKETS`) of agents with uniformly random elasticities
/// (each market seeded from its size and index). In each, every agent
/// computes its best response (Eq. 15); the market's gain is the largest
/// relative utility gain from lying, and its deviation is how far that
/// same agent's best report strays from its truth. The paper finds tens
/// of agents suffice for SPL (64 agents being the motivating example).
pub fn appendix_spl() -> Vec<Table> {
    let capacity = Capacity::new(vec![100.0, 12.0]).expect("positive"); // >100 GB/s server (§4.3)
    let mut t = Table::new(
        "gains",
        format!(
            "Appendix A: gain from lying over {SPL_MARKETS} random markets per size \
             (100 GB/s, 12 MB; elasticities uniform in [0.05, 0.95])"
        ),
        "agents | median gain (%) | p95 gain (%) | median deviation | p95 deviation",
    );
    for n in [2_usize, 4, 8, 16, 32, 64] {
        let markets = ref_pool::par_map(SPL_MARKETS, |k| {
            let mut rng = ChaCha8Rng::seed_from_u64(0x59A7 ^ ((n as u64) << 32 | k as u64));
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| {
                    let a: f64 = rng.gen_range(0.05..0.95);
                    vec![a, 1.0 - a]
                })
                .collect();
            let (winner, gain) =
                max_gain_from_lying(&rows, &capacity).expect("rows on the simplex");
            (
                gain.relative_gain() * 100.0,
                gain.report_deviation(&rows[winner]),
            )
        });
        let (mut gains, mut deviations): (Vec<f64>, Vec<f64>) = markets.into_iter().unzip();
        let cells = vec![
            num(quantile(&mut gains, 0.5), 4),
            num(quantile(&mut gains, 0.95), 4),
            num(quantile(&mut deviations, 0.5), 4),
            num(quantile(&mut deviations, 0.95), 4),
        ];
        t.row(n.to_string(), cells);
    }
    vec![t]
}

fn geometric_grid(lo: f64, hi: f64, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| lo * (hi / lo).powf(i as f64 / (n - 1) as f64))
        .collect()
}

/// Ablation: profiling-grid density vs fit stability.
///
/// The paper samples 25 configurations (5 cache sizes x 5 bandwidths).
/// This ablation refits selected workloads on 3x3, 5x5 and 7x7 grids and
/// reports how much the re-scaled elasticities move — quantifying how much
/// profiling effort the mechanism actually needs. Expected shape:
/// elasticities stable to a few hundredths from 3x3 up.
pub fn ablation_grid_density() -> Vec<Table> {
    let mut t = Table::new(
        "density",
        "Ablation: grid density vs fitted (re-scaled) elasticities",
        "workload | grid | α_mem | α_cache | R² | configs | α_cache drift vs 5x5",
    );
    for name in ["raytrace", "histogram", "canneal", "dedup", "fft"] {
        let bench = by_name(name).expect("known workload");
        let mut reference = 0.0;
        // 5x5 (the paper's grid) first so the others report drift against it.
        for n in [5_usize, 3, 7] {
            let opts = ProfilerOptions {
                cache_sizes: geometric_grid(128.0 * 1024.0, 2048.0 * 1024.0, n)
                    .into_iter()
                    .map(|b| CacheSize::from_bytes((b / 512.0).round() as u64 * 512))
                    .collect(),
                bandwidths: geometric_grid(0.8, 12.8, n)
                    .into_iter()
                    .map(Bandwidth::from_gb_per_sec)
                    .collect(),
                ..experiment_options()
            };
            let f = fit_grid(profile(bench, &opts));
            let (a_mem, a_cache) = f.rescaled_elasticities();
            let drift = match n {
                5 => {
                    reference = a_cache;
                    "-".into()
                }
                _ => num(a_cache - reference, 3),
            };
            let mut cells = vec![format!("{n}x{n}").into(), num(a_mem, 3), num(a_cache, 3)];
            cells.extend([num(f.r_squared, 3), num((n * n) as f64, 0), drift]);
            t.row(name, cells);
        }
    }
    vec![t]
}

/// Ablation: way-partitioning granularity.
///
/// REF computes continuous cache shares, but hardware enforces them in
/// whole L2 ways. This ablation rounds the REF allocation to 4-, 8-, 16-
/// and 32-way partitions and reports each agent's ways and the worst
/// utility loss relative to the continuous allocation — the cost of
/// coarse partitioning hardware. The loss need not fall monotonically
/// with the way count: it depends on where each count's rounding lands.
pub fn ablation_way_rounding() -> Vec<Table> {
    let agents = [[0.30, 0.70], [0.85, 0.15], [0.55, 0.45], [0.45, 0.55]].map(|a| cobb_douglas(&a));
    let capacity = capacity_for_agents(4);
    let continuous = ProportionalElasticity
        .allocate(&agents, &capacity)
        .expect("allocates");
    let shares: Vec<f64> = continuous
        .bundles()
        .iter()
        .map(|b| b.get(1) / capacity.get(1))
        .collect();
    let caption = "Ablation: rounding REF cache shares to whole L2 ways";
    let mut exact = Table::new(
        "continuous",
        format!("{caption}: the continuous shares"),
        "agent (α_mem, α_cache) | cache share",
    );
    for (a, s) in agents.iter().zip(&shares) {
        exact.row(
            format!("({}, {})", a.elasticity(0), a.elasticity(1)),
            vec![num(*s, 3)],
        );
    }
    let mut rounded = Table::new(
        "rounded",
        format!("{caption}: ways per agent and the worst utility loss"),
        "ways | agent 1 | agent 2 | agent 3 | agent 4 | worst utility loss (%)",
    );
    for total_ways in [4_usize, 8, 16, 32] {
        let ways = partition_ways(total_ways, &shares);
        let mut worst_loss: f64 = 0.0;
        for (i, agent) in agents.iter().enumerate() {
            let bw = continuous.bundle(i).get(0);
            let cache = ways[i] as f64 / total_ways as f64 * capacity.get(1);
            let coarse = Bundle::new(vec![bw, cache]).expect("non-negative bundle");
            let loss = (1.0 - agent.value(&coarse) / agent.value(continuous.bundle(i))) * 100.0;
            worst_loss = worst_loss.max(loss);
        }
        let mut cells: Vec<Cell> = ways.iter().map(|w| num(*w as f64, 0)).collect();
        cells.push(num(worst_loss, 2));
        rounded.row(total_ways.to_string(), cells);
    }
    vec![exact, rounded]
}

/// Ablation: geometric-programming tolerance vs the closed form.
///
/// §4.2 proves the REF closed form *is* the Nash-welfare optimum for
/// re-scaled utilities. This ablation solves that optimum with the interior
/// point method at decreasing duality-gap tolerances and reports distance
/// to the closed form and iteration counts — validating both the solver and
/// the paper's "computationally trivial" contrast. Expected shape: error
/// falls with tolerance, and even loose tolerances land within hundredths.
pub fn ablation_solver_tolerance() -> Vec<Table> {
    // Re-scaled agents: the GP optimum must equal the closed form.
    let agents = [[0.6, 0.4], [0.2, 0.8], [0.5, 0.5]].map(|a| cobb_douglas(&a));
    let capacity = capacity_for_agents(4);
    let exact = ProportionalElasticity
        .allocate(&agents, &capacity)
        .expect("allocates");
    let n = agents.len();
    let solve = |tolerance: f64| -> Result<(usize, f64), Box<dyn std::error::Error>> {
        let exps: Vec<f64> = agents
            .iter()
            .flat_map(|a| [a.elasticity(0), a.elasticity(1)])
            .collect();
        let welfare = Monomial::new(1.0, exps)?;
        let mut gp = GeometricProgram::minimize(2 * n, welfare.reciprocal().into())?;
        for r in 0..2 {
            let terms = (0..n).map(|i| {
                let mut e = vec![0.0; 2 * n];
                e[2 * i + r] = 1.0;
                Monomial::new(1.0 / capacity.get(r), e)
            });
            gp.add_constraint(Posynomial::from_monomials(
                terms.collect::<Result<_, _>>()?,
            )?)?;
        }
        gp.set_options(BarrierOptions {
            tolerance,
            ..BarrierOptions::default()
        });
        let start = [capacity.get(0), capacity.get(1)]
            .map(|c| c / n as f64 * 0.9)
            .repeat(n);
        let sol = gp.solve(&start)?;
        let err = (0..2 * n)
            .map(|k| (sol.x[k] - exact.bundle(k / 2).get(k % 2)).abs())
            .fold(0.0, f64::max);
        Ok((sol.outer_iterations, err))
    };
    let mut t = Table::new(
        "tolerance",
        "Ablation: interior-point tolerance vs REF closed form",
        "tolerance | outer iterations | max error vs closed form",
    );
    for tol in [1e-2, 1e-4, 1e-6, 1e-8] {
        let (iterations, err) = solve(tol).expect("the GP is feasible and bounded");
        t.row(
            format!("{tol:.0e}"),
            vec![num(iterations as f64, 0), format!("{err:.2e}").into()],
        );
    }
    vec![t]
}

/// Re-scaled elasticities, class and peak IPC of `workloads` profiled
/// on each of two platform `variants` (label, platform).
fn platform_ablation(
    caption: &str,
    setting: &str,
    workloads: [&str; 5],
    variants: [(&str, PlatformConfig); 2],
) -> Vec<Table> {
    let columns = format!("workload | {setting} | α_mem | α_cache | class | peak IPC");
    let mut t = Table::new("fits", caption, &columns);
    for name in workloads {
        for (label, platform) in variants {
            let opts = ProfilerOptions {
                platform,
                ..experiment_options()
            };
            let f = fit_grid(profile(by_name(name).expect("known workload"), &opts));
            let (a_mem, a_cache) = f.rescaled_elasticities();
            let mut cells = vec![label.into(), num(a_mem, 3), num(a_cache, 3)];
            cells.extend([f.class().into(), num(f.grid.peak_ipc(), 3)]);
            t.row(name, cells);
        }
    }
    vec![t]
}

/// Ablation: DRAM page policy vs fitted elasticities.
///
/// The paper's Table-1 controller is closed-page. This ablation refits
/// representative workloads under an open-page controller (row-buffer
/// hits pay CAS-only latency) and reports how the elasticities and the
/// C/M classification move (and the peak IPC) — probing whether REF's inputs are robust to
/// the memory controller's policy. Expected shape: open-page shifts
/// streaming workloads' latencies down but leaves every class intact.
pub fn ablation_page_policy() -> Vec<Table> {
    let base = PlatformConfig::asplos14();
    platform_ablation(
        "Ablation: closed-page vs open-page DRAM controller",
        "policy",
        ["raytrace", "histogram", "canneal", "dedup", "streamcluster"],
        [
            ("closed-page", base.with_page_policy(PagePolicy::ClosedPage)),
            ("open-page", base.with_page_policy(PagePolicy::OpenPage)),
        ],
    )
}

/// Ablation: hardware prefetching vs fitted elasticities.
///
/// A next-line prefetcher converts part of a streaming workload's latency
/// exposure into pure bandwidth demand. This ablation refits representative
/// workloads with the prefetcher enabled and reports how the elasticities
/// and the peak IPC move — probing whether REF's inputs are robust to the
/// core's prefetch configuration. Expected shape: prefetching lifts
/// streaming IPC without flipping any C/M class.
pub fn ablation_prefetcher() -> Vec<Table> {
    let base = PlatformConfig::asplos14();
    platform_ablation(
        "Ablation: next-line prefetcher off vs on",
        "prefetch",
        [
            "raytrace",
            "histogram",
            "streamcluster",
            "dedup",
            "ocean_cp",
        ],
        [
            ("off", base.with_next_line_prefetch(false)),
            ("on", base.with_next_line_prefetch(true)),
        ],
    )
}
