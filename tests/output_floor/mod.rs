//! Direction 15's floor, shared by the suites that hold every one-round
//! run to it (`mod output_floor;` in each).

use mpc_skew::core::bounds::output_floor;
use mpc_skew::query::Query;
use mpc_skew::sim::load::LoadReport;

/// A run is held to the floor its own answer count sets
/// (`bounds::output_floor`): the busiest server holds at least `L_out`
/// tuples, and the servers' AGM bounds sum to at least the answer count.
/// Both hold by arithmetic for any correct round; a `LoadReport` or a
/// fragment bookkeeping that undercounts breaks them.
pub fn assert_clears_output_floor(tag: &str, q: &Query, report: &LoadReport, out: u64) {
    let p = report.per_server_tuples.len();
    let (l_out, agm_sum) = output_floor(q, &report.per_atom_server_tuples, out, p);
    let max = report.max_load_tuples() as f64;
    assert!(
        max >= l_out * (1.0 - 1e-9),
        "{tag}: max load {max} tuples is below L_out {l_out:.1}"
    );
    assert!(
        agm_sum >= out as f64 * (1.0 - 1e-9),
        "{tag}: the servers' AGM bounds sum to {agm_sum:.1} < |OUT| {out}"
    );
}
