//! The per-toggle activity reference: the AoS conversion of one timed
//! cycle's toggles into current events that `htd_em::ActivityTable` is
//! pinned to bit for bit.

use htd_em::CurrentEvent;
use htd_fabric::{DieVariation, Placement, Technology};
use htd_netlist::{CellKind, Netlist};
use htd_timing::TimedRun;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventSimulator;
    use htd_em::ActivityTable;
    use htd_fabric::{Device, DeviceConfig, VariationModel};
    use htd_timing::DelayAnnotation;

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
