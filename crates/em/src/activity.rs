//! Switching activity → current events.
//!
//! * [`CurrentEvent`] — one struct per toggle: the event-level container
//!   the measurement chains consume.
//! * [`ActivityTable`] — the hot-path per-net form. The table
//!   precomputes, per net, everything about a toggle's charge injection
//!   that does not depend on *when* it toggles (charge × local process
//!   variation, die position), so each toggle costs one lookup of its
//!   net's weighted charge before it is binned.
//!
//! The table's charges are bit-identical to the per-toggle reference
//! `collect_activity` (in the dev-only `htd-oracle` crate): it stores the
//! same `base_charge × current_factor` product, and weighting multiplies
//! it by the same per-position coupling factor in the same order.

use htd_fabric::{DieVariation, Placement, Technology};
use htd_netlist::{CellKind, NetId, Netlist};

/// One charge injection into the power/EM environment: a cell toggled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentEvent {
    /// Absolute time since the start of the acquisition, ps.
    pub time_ps: f64,
    /// Injected charge, arbitrary units (already PV-scaled).
    pub charge: f64,
    /// Die position of the toggling cell, slice-pitch units.
    pub position: (f64, f64),
}

/// Per-net emission profile of one (netlist, placement, die) triple: the
/// time-independent part of the per-toggle charge injection, precomputed
/// once so the per-toggle work collapses to two array lookups.
///
/// Nets that emit nothing (undriven, driven by a non-LUT/DFF cell, or
/// unplaced drivers) carry a NaN charge sentinel and are skipped.
#[derive(Debug, Clone)]
pub struct ActivityTable {
    /// Per net: injected charge per toggle (`base × current_factor`), NaN
    /// for non-emitting nets.
    charge: Vec<f64>,
    /// Per net: die position of the driver's slice center.
    position: Vec<(f64, f64)>,
}

impl ActivityTable {
    /// Precomputes the per-net charges and positions (same skip rules and
    /// same arithmetic as the per-toggle reference).
    pub fn build(
        netlist: &Netlist,
        placement: &Placement,
        die: &DieVariation,
        tech: &Technology,
    ) -> Self {
        let n = netlist.net_count();
        let mut charge = vec![f64::NAN; n];
        let mut position = vec![(0.0, 0.0); n];
        for i in 0..n {
            let net = NetId::from_index(i);
            let Some(driver) = netlist.net(net).driver() else {
                continue;
            };
            let base_charge = match netlist.cell(driver).kind() {
                CellKind::Lut(_) => tech.lut_toggle_charge,
                CellKind::Dff => tech.dff_toggle_charge,
                _ => continue,
            };
            let Some(site) = placement.site_of(driver) else {
                continue;
            };
            charge[i] = base_charge * die.current_factor(site.slice);
            position[i] = site.slice.center();
        }
        ActivityTable { charge, position }
    }

    /// Whether toggles of net index `i` inject charge.
    pub fn emits(&self, i: usize) -> bool {
        !self.charge[i].is_nan()
    }

    /// Per-net unweighted charges (NaN = non-emitting).
    pub fn charges(&self) -> &[f64] {
        &self.charge
    }

    /// Per-net driver positions (meaningless where [`Self::emits`] is false).
    pub fn positions(&self) -> &[(f64, f64)] {
        &self.position
    }

    /// Per-net `charge × weight(position)` array for one acquisition
    /// chain (e.g. probe coupling, or `|_| 1.0` for the power baseline).
    /// Non-emitting nets stay NaN.
    pub fn weighted_charges(&self, weight: impl Fn((f64, f64)) -> f64) -> Vec<f64> {
        self.charge
            .iter()
            .zip(&self.position)
            .map(|(&c, &p)| if c.is_nan() { f64::NAN } else { c * weight(p) })
            .collect()
    }
}
