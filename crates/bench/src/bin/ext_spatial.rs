//! Extension: spatial + temporal shifting (the paper's §9 future work:
//! "evaluate them in geographically federated clusters"). One
//! [`run_placed`] call sends each arriving job to the region whose
//! greenest window reachable within its waiting budget is cleanest, with
//! data movement free, then schedules it there with Carbon-Time.

use bench::{banner, carbon, week_billing, week_trace};
use gaia_carbon::{CarbonTrace, Region};
use gaia_core::catalog::{BasePolicyKind, PolicySpec};
use gaia_core::placement::{PlacementSpec, TransferModel};
use gaia_metrics::placed::run_placed;
use gaia_metrics::runner;
use gaia_metrics::table::TextTable;
use gaia_sim::ClusterConfig;

fn main() {
    banner(
        "Extension: geo-distributed scheduling",
        "Greedy spatial placement on top of temporal shifting: every job is\n\
         sent to the federated region with the cleanest reachable window,\n\
         then scheduled there by Carbon-Time. Spatial shifting pays when the\n\
         regions' solar valleys are out of phase, so the federation pairs\n\
         South Australia (UTC+9.5) with California (UTC-8) — when one's sun\n\
         is down, the other's is up. Moving a job costs nothing here.\n\
         Compared against running the whole workload in each single region.\n\
         (Week-long Alibaba-PAI.)",
    );
    let regions = [Region::SouthAustralia, Region::California];
    // Express each trace on the cluster's (SA-local) clock: California's
    // day is offset by ~18 hours from South Australia's.
    let traces: Vec<CarbonTrace> = vec![
        carbon(Region::SouthAustralia),
        carbon(Region::California).rotate(18),
    ];
    let workload = week_trace();
    let config = ClusterConfig::default().with_billing_horizon(week_billing());
    let spec = PolicySpec::plain(BasePolicyKind::CarbonTime);

    let mut table = TextTable::new(vec![
        "placement",
        "carbon (kg)",
        "carbon/best-single",
        "wait (h)",
    ]);

    // Single-region references.
    let mut single: Vec<(Region, f64, f64)> = Vec::new();
    for (region, ci) in regions.iter().zip(&traces) {
        let summary = runner::run_spec(spec, &workload, ci, config);
        single.push((*region, summary.carbon_g, summary.mean_wait_hours));
    }
    let best_single = single
        .iter()
        .map(|&(_, c, _)| c)
        .fold(f64::INFINITY, f64::min);

    let refs: Vec<(Region, &CarbonTrace)> = regions.iter().copied().zip(&traces).collect();
    let placement = PlacementSpec::federated(regions[0])
        .with_candidates(&regions)
        .with_model(TransferModel {
            gb_per_cpu: 0.0,
            cost_per_gb: 0.0,
            carbon_g_per_gb: 0.0,
            minutes_per_1000km: 0.0,
        });
    let placed = run_placed(spec, &workload, &refs, &placement, config);
    let total_carbon = placed.report.totals.carbon_g;
    let federated_wait = placed.report.totals.mean_waiting().as_hours_f64();

    for (region, carbon_g, wait) in &single {
        table.row(vec![
            format!("all in {}", region.code()),
            format!("{:.1}", carbon_g / 1000.0),
            format!("{:.3}", carbon_g / best_single),
            format!("{wait:.2}"),
        ]);
    }
    table.row(vec![
        "federated (greedy)".into(),
        format!("{:.1}", total_carbon / 1000.0),
        format!("{:.3}", total_carbon / best_single),
        format!("{federated_wait:.2}"),
    ]);
    println!("{table}");
    let shares: Vec<String> = regions
        .iter()
        .map(|&r| {
            format!(
                "{}: {:.0}%",
                r.code(),
                placed.placement.jobs_in(r).len() as f64 * 100.0 / workload.len() as f64
            )
        })
        .collect();
    println!("job placement: {}", shares.join(", "));
    println!(
        "spatial + temporal shifting saves {:.1}% over the best single region",
        (1.0 - total_carbon / best_single) * 100.0
    );
}
