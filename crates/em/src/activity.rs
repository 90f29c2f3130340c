//! Switching activity → current events.
//!
//! Two representations coexist:
//!
//! * [`CurrentEvent`] / [`collect_activity`] — the original AoS form, one
//!   struct per toggle. Kept as the reference semantics and the public
//!   container other crates consume.
//! * [`ActivityTable`] — the hot-path per-net form. The table
//!   precomputes, per net, everything about a toggle's charge injection
//!   that does not depend on *when* it toggles (charge × local process
//!   variation, die position), so each toggle costs one lookup of its
//!   net's weighted charge before it is binned.
//!
//! Both produce bit-identical charges: the table stores the same
//! `base_charge × current_factor` product `collect_activity` computes per
//! toggle, and weighting multiplies it by the same per-position coupling
//! factor in the same order.

use htd_fabric::{DieVariation, Placement, Technology};
use htd_netlist::{CellKind, NetId, Netlist};
use htd_timing::TimedRun;

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

/// Converts the toggle stream of one timed clock cycle into current events.
///
/// * `cycle_start_ps` offsets the in-cycle toggle times to absolute
///   acquisition time.
/// * Each toggle injects the technology's per-cell charge
///   ([`Technology::lut_toggle_charge`] / [`Technology::dff_toggle_charge`])
///   scaled by the die's local current factor — the inter-/intra-die
///   process variation that disperses the golden population in the paper's
///   Section V.
/// * Toggles of unplaced drivers (top-level ports, constants) carry no
///   on-die charge and are skipped.
pub fn collect_activity(
    run: &TimedRun,
    cycle_start_ps: f64,
    netlist: &Netlist,
    placement: &Placement,
    die: &DieVariation,
    tech: &Technology,
) -> Vec<CurrentEvent> {
    let mut events = Vec::with_capacity(run.toggles.len());
    for toggle in &run.toggles {
        let Some(driver) = netlist.net(toggle.net).driver() else {
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
        events.push(CurrentEvent {
            time_ps: cycle_start_ps + toggle.time_ps,
            charge: base_charge * die.current_factor(site.slice),
            position: site.slice.center(),
        });
    }
    events
}

/// Per-net emission profile of one (netlist, placement, die) triple: the
/// time-independent part of [`collect_activity`], precomputed once so the
/// per-toggle work collapses to two array lookups.
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
    /// same arithmetic as [`collect_activity`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use htd_fabric::{Device, DeviceConfig, VariationModel};
    use htd_netlist::Netlist;
    use htd_timing::{DelayAnnotation, EventSimulator};

    fn toy() -> Netlist {
        let mut nl = Netlist::new("toy");
        let d = nl.add_input("d");
        let q = nl.add_dff(d, "r").unwrap();
        let a = nl.not_gate(q);
        let b = nl.not_gate(a);
        nl.add_output("b", b).unwrap();
        nl
    }

    #[test]
    fn events_follow_toggles_with_charges() {
        let nl = toy();
        let device = Device::new(DeviceConfig::new(8, 8));
        let placement = Placement::place(&nl, &device).unwrap();
        let die = DieVariation::generate(&VariationModel::none(), &device, 0);
        let tech = Technology::virtex5();
        let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        let mut fsim = nl.simulator().unwrap();
        fsim.set(nl.input_nets()[0], true);
        fsim.settle();
        let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
        let run = esim.clock_cycle(&ann);
        let events = collect_activity(&run, 1_000.0, &nl, &placement, &die, &tech);
        // DFF toggle + two LUT toggles.
        assert_eq!(events.len(), 3);
        let dff_events: Vec<_> = events
            .iter()
            .filter(|e| e.charge == tech.dff_toggle_charge)
            .collect();
        assert_eq!(dff_events.len(), 1);
        // All offsets include the cycle start.
        for e in &events {
            assert!(e.time_ps >= 1_000.0);
        }
    }

    #[test]
    fn activity_table_reproduces_collect_activity_bit_for_bit() {
        let nl = toy();
        let device = Device::new(DeviceConfig::new(8, 8));
        let placement = Placement::place(&nl, &device).unwrap();
        let die = DieVariation::generate(&VariationModel::nm65(), &device, 3);
        let tech = Technology::virtex5();
        let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        let run = {
            let mut fsim = nl.simulator().unwrap();
            fsim.set(nl.input_nets()[0], true);
            fsim.settle();
            let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
            esim.clock_cycle(&ann)
        };
        let want = collect_activity(&run, 1_000.0, &nl, &placement, &die, &tech);

        // The per-toggle lookup the acquisition replay does: emitting
        // toggles only, charge and position read per driver net.
        let table = ActivityTable::build(&nl, &placement, &die, &tech);
        let (mut times, mut nets) = (Vec::new(), Vec::new());
        for toggle in &run.toggles {
            let i = toggle.net.index();
            if table.emits(i) {
                times.push(1_000.0 + toggle.time_ps);
                nets.push(i as u32);
            }
        }
        let got: Vec<CurrentEvent> = times
            .iter()
            .zip(&nets)
            .map(|(&time_ps, &n)| CurrentEvent {
                time_ps,
                charge: table.charges()[n as usize],
                position: table.positions()[n as usize],
            })
            .collect();
        assert_eq!(got.len(), want.len());
        for (a, b) in want.iter().zip(&got) {
            assert_eq!(a.time_ps.to_bits(), b.time_ps.to_bits());
            assert_eq!(a.charge.to_bits(), b.charge.to_bits());
            assert_eq!(a.position, b.position);
        }

        // The per-net weighted charges carry the same products as
        // weighting the AoS events per toggle.
        let weight = |p: (f64, f64)| 1.0 / (1.0 + p.0 * p.0 + p.1 * p.1);
        let weighted = table.weighted_charges(weight);
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        assert_eq!(
            bits(nets.iter().map(|&n| weighted[n as usize]).collect()),
            bits(want.iter().map(|e| e.charge * weight(e.position)).collect())
        );
    }

    #[test]
    fn current_factor_scales_charge() {
        let nl = toy();
        let device = Device::new(DeviceConfig::new(8, 8));
        let placement = Placement::place(&nl, &device).unwrap();
        let tech = Technology::virtex5();
        let ann = DelayAnnotation::uniform(&nl, 100.0, 50.0, 300.0, 80.0);
        let run = {
            let mut fsim = nl.simulator().unwrap();
            fsim.set(nl.input_nets()[0], true);
            fsim.settle();
            let mut esim = EventSimulator::from_snapshot(&nl, fsim.snapshot());
            esim.clock_cycle(&ann)
        };
        let hot = DieVariation::generate(&VariationModel::nm65(), &device, 5);
        let nominal = DieVariation::generate(&VariationModel::none(), &device, 5);
        let e_hot = collect_activity(&run, 0.0, &nl, &placement, &hot, &tech);
        let e_nom = collect_activity(&run, 0.0, &nl, &placement, &nominal, &tech);
        assert_eq!(e_hot.len(), e_nom.len());
        let differs = e_hot
            .iter()
            .zip(&e_nom)
            .any(|(a, b)| (a.charge - b.charge).abs() > 1e-12);
        assert!(differs, "process variation must scale charges");
    }
}
