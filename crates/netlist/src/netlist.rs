//! The [`Netlist`] container and its construction API.

use crate::cell::{Cell, CellKind, LutMask};
use crate::net::Net;
use crate::sim::Simulator;
use crate::stats::NetlistStats;
use crate::topo::Levelization;
use crate::{CellId, NetId, NetlistError};

/// A flat, LUT-mapped gate-level netlist with one implicit clock domain.
///
/// Cells and nets are created through the `add_*` methods and never removed,
/// so all ids stay valid. Single-driver-per-net is enforced at construction
/// time; combinational cycles are detected by [`Netlist::levelize`] /
/// [`Netlist::validate`].
///
/// See the [crate-level documentation](crate) for a worked example.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    inputs: Vec<CellId>,
    outputs: Vec<CellId>,
    consts: [Option<NetId>; 2],
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            cells: Vec::new(),
            nets: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            consts: [None, None],
        }
    }

    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // ------------------------------------------------------------------
    // Raw construction
    // ------------------------------------------------------------------

    /// Adds a floating net.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            driver: None,
            sinks: Vec::new(),
            name: name.into(),
        });
        id
    }

    fn push_cell(
        &mut self,
        kind: CellKind,
        inputs: Vec<NetId>,
        output: Option<NetId>,
        name: String,
    ) -> Result<CellId, NetlistError> {
        for &net in inputs.iter().chain(output.iter()) {
            if net.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet { net });
            }
        }
        let id = CellId(self.cells.len() as u32);
        if let Some(out) = output {
            let net = &mut self.nets[out.index()];
            if let Some(first) = net.driver {
                return Err(NetlistError::MultipleDrivers {
                    net: out,
                    first,
                    second: id,
                });
            }
            net.driver = Some(id);
        }
        for &input in &inputs {
            self.nets[input.index()].sinks.push(id);
        }
        self.cells.push(Cell {
            kind,
            inputs,
            output,
            name,
        });
        Ok(id)
    }

    /// Adds a top-level input port and returns the net it drives.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let name = name.into();
        let net = self.add_net(name.clone());
        let cell = self
            .push_cell(CellKind::Input, Vec::new(), Some(net), name)
            .expect("fresh net cannot be doubly driven");
        self.inputs.push(cell);
        net
    }

    /// Adds a top-level output port observing `net`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `net` does not exist.
    pub fn add_output(
        &mut self,
        name: impl Into<String>,
        net: NetId,
    ) -> Result<CellId, NetlistError> {
        let cell = self.push_cell(CellKind::Output, vec![net], None, name.into())?;
        self.outputs.push(cell);
        Ok(cell)
    }

    /// Returns the net for a constant `value`, creating the driver cell on
    /// first use (constants are deduplicated).
    pub fn const_net(&mut self, value: bool) -> NetId {
        if let Some(net) = self.consts[value as usize] {
            return net;
        }
        let name = if value { "vcc" } else { "gnd" };
        let net = self.add_net(name);
        self.push_cell(
            CellKind::Const(value),
            Vec::new(),
            Some(net),
            name.to_string(),
        )
        .expect("fresh net cannot be doubly driven");
        self.consts[value as usize] = Some(net);
        net
    }

    /// Adds a LUT driving a fresh net and returns that net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::EmptyLut`] for zero inputs,
    /// [`NetlistError::LutTooWide`] for more than six, and
    /// [`NetlistError::UnknownNet`] for dangling input ids.
    pub fn add_lut(&mut self, inputs: &[NetId], mask: LutMask) -> Result<NetId, NetlistError> {
        self.add_lut_named(inputs, mask, format!("lut{}", self.cells.len()))
    }

    /// Adds a named LUT driving a fresh net and returns that net.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Netlist::add_lut`].
    pub fn add_lut_named(
        &mut self,
        inputs: &[NetId],
        mask: LutMask,
        name: impl Into<String>,
    ) -> Result<NetId, NetlistError> {
        if inputs.is_empty() {
            return Err(NetlistError::EmptyLut);
        }
        if inputs.len() > LutMask::MAX_INPUTS {
            return Err(NetlistError::LutTooWide {
                inputs: inputs.len(),
            });
        }
        let name = name.into();
        let out = self.add_net(name.clone());
        self.push_cell(CellKind::Lut(mask), inputs.to_vec(), Some(out), name)?;
        Ok(out)
    }

    /// Adds a D flip-flop sampling `d` and returns its `Q` net.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `d` does not exist.
    pub fn add_dff(&mut self, d: NetId, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let name = name.into();
        let q = self.add_net(format!("{name}.q"));
        self.push_cell(CellKind::Dff, vec![d], Some(q), name)?;
        Ok(q)
    }

    /// Adds a D flip-flop whose `D` pin will be connected later with
    /// [`Netlist::connect_dff_d`], returning `(cell, q)`.
    ///
    /// This is how sequential feedback loops (state registers feeding the
    /// logic that computes their own next value) are built: create the
    /// flip-flop first, use its `Q` net in the logic, then close the loop.
    pub fn add_dff_uninit(&mut self, name: impl Into<String>) -> (CellId, NetId) {
        let name = name.into();
        let q = self.add_net(format!("{name}.q"));
        let cell = self
            .push_cell(CellKind::Dff, Vec::new(), Some(q), name)
            .expect("fresh net cannot be doubly driven");
        (cell, q)
    }

    /// Connects the `D` pin of a flip-flop created with
    /// [`Netlist::add_dff_uninit`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NotAnOpenDff`] if `dff` is not a flip-flop or
    /// already has its `D` connected, and [`NetlistError::UnknownNet`] if
    /// `d` does not exist.
    pub fn connect_dff_d(&mut self, dff: CellId, d: NetId) -> Result<(), NetlistError> {
        if d.index() >= self.nets.len() {
            return Err(NetlistError::UnknownNet { net: d });
        }
        let cell = self
            .cells
            .get_mut(dff.index())
            .ok_or(NetlistError::NotAnOpenDff { cell: dff })?;
        if !cell.kind.is_dff() || !cell.inputs.is_empty() {
            return Err(NetlistError::NotAnOpenDff { cell: dff });
        }
        cell.inputs.push(d);
        self.nets[d.index()].sinks.push(dff);
        Ok(())
    }

    // ------------------------------------------------------------------
    // Raw reconstruction plumbing (crate-internal; used by the `htdnet`
    // text parser to rebuild cells onto pre-declared nets). The public
    // builder API never drives an already-existing net, which is what
    // makes combinational cycles unrepresentable through it; parsed input
    // is instead checked by `validate`.
    // ------------------------------------------------------------------

    pub(crate) fn add_port_input_to(
        &mut self,
        net: NetId,
        name: String,
    ) -> Result<CellId, NetlistError> {
        let cell = self.push_cell(CellKind::Input, Vec::new(), Some(net), name)?;
        self.inputs.push(cell);
        Ok(cell)
    }

    pub(crate) fn add_const_to(&mut self, net: NetId, value: bool) -> Result<CellId, NetlistError> {
        let name = if value { "vcc" } else { "gnd" };
        let cell = self.push_cell(CellKind::Const(value), Vec::new(), Some(net), name.into())?;
        if self.consts[value as usize].is_none() {
            self.consts[value as usize] = Some(net);
        }
        Ok(cell)
    }

    pub(crate) fn add_lut_to(
        &mut self,
        out: NetId,
        inputs: &[NetId],
        mask: crate::LutMask,
        name: String,
    ) -> Result<CellId, NetlistError> {
        if inputs.is_empty() {
            return Err(NetlistError::EmptyLut);
        }
        if inputs.len() > crate::LutMask::MAX_INPUTS {
            return Err(NetlistError::LutTooWide {
                inputs: inputs.len(),
            });
        }
        self.push_cell(CellKind::Lut(mask), inputs.to_vec(), Some(out), name)
    }

    pub(crate) fn add_dff_to(&mut self, q: NetId, name: String) -> Result<CellId, NetlistError> {
        self.push_cell(CellKind::Dff, Vec::new(), Some(q), name)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The cell with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// The net with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Number of cells (including ports and constants).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Iterates over `(id, cell)` pairs in creation order.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i as u32), c))
    }

    /// Iterates over `(id, net)` pairs in creation order.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i as u32), n))
    }

    /// Nets driven by the top-level input ports, in declaration order.
    pub fn input_nets(&self) -> Vec<NetId> {
        self.inputs
            .iter()
            .map(|&c| self.cells[c.index()].output.expect("input drives a net"))
            .collect()
    }

    /// Nets observed by the top-level output ports, in declaration order.
    pub fn output_nets(&self) -> Vec<NetId> {
        self.outputs
            .iter()
            .map(|&c| self.cells[c.index()].inputs[0])
            .collect()
    }

    /// Iterates over the D flip-flop cells.
    pub fn dff_cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells().filter(|(_, c)| c.kind.is_dff())
    }

    /// Aggregate statistics (cell counts, fan-out, LUT width histogram).
    pub fn stats(&self) -> NetlistStats {
        NetlistStats::of(self)
    }

    // ------------------------------------------------------------------
    // Analysis entry points
    // ------------------------------------------------------------------

    /// Computes a combinational levelization (topological order).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the LUT network
    /// contains a cycle not broken by a flip-flop.
    pub fn levelize(&self) -> Result<Levelization, NetlistError> {
        Levelization::of(self)
    }

    /// Validates structural invariants: every sink-connected net has a
    /// driver, and the combinational network is acyclic.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::FloatingNet`] or
    /// [`NetlistError::CombinationalCycle`] on the first violation found.
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (id, net) in self.nets() {
            if net.driver.is_none() && !net.sinks.is_empty() {
                return Err(NetlistError::FloatingNet { net: id });
            }
        }
        for (id, cell) in self.cells() {
            if cell.kind.is_dff() && cell.inputs.is_empty() {
                return Err(NetlistError::UnconnectedDff { cell: id });
            }
        }
        self.levelize().map(|_| ())
    }

    /// Creates a functional (zero-delay) simulator for this netlist.
    ///
    /// # Errors
    ///
    /// Returns an error if the netlist fails [`Netlist::validate`].
    pub fn simulator(&self) -> Result<Simulator<'_>, NetlistError> {
        Simulator::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_driver_is_enforced() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let out = nl.add_lut(&[a], LutMask::from_fn(1, |r| r == 0)).unwrap();
        // Manually try to drive `out` again via push_cell through add_dff on
        // a crafted net: the public API cannot alias outputs, so check the
        // internal guard directly.
        let err = nl
            .push_cell(CellKind::Const(true), Vec::new(), Some(out), "bad".into())
            .unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn unknown_net_is_rejected() {
        let mut nl = Netlist::new("t");
        let bogus = NetId::from_index(99);
        assert!(matches!(
            nl.add_output("o", bogus),
            Err(NetlistError::UnknownNet { .. })
        ));
    }

    #[test]
    fn const_nets_are_deduplicated() {
        let mut nl = Netlist::new("t");
        let a = nl.const_net(true);
        let b = nl.const_net(true);
        let c = nl.const_net(false);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(nl.cell_count(), 2);
    }

    #[test]
    fn floating_net_fails_validation() {
        let mut nl = Netlist::new("t");
        let floating = nl.add_net("f");
        nl.add_output("o", floating).unwrap();
        assert!(matches!(
            nl.validate(),
            Err(NetlistError::FloatingNet { .. })
        ));
    }

    #[test]
    fn ports_are_tracked_in_order() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        nl.add_output("oa", a).unwrap();
        nl.add_output("ob", b).unwrap();
        assert_eq!(nl.input_nets(), vec![a, b]);
        assert_eq!(nl.output_nets(), vec![a, b]);
    }

    #[test]
    fn dff_q_net_is_fresh() {
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let q = nl.add_dff(d, "r0").unwrap();
        assert_ne!(d, q);
        assert_eq!(
            nl.net(q).driver().map(|c| nl.cell(c).kind()),
            Some(CellKind::Dff)
        );
    }

    #[test]
    fn fanout_counts_pins_not_cells() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        // One LUT using `a` on two pins: fanout 2.
        let xor = LutMask::from_fn(2, |r| (r.count_ones() & 1) == 1);
        nl.add_lut(&[a, a], xor).unwrap();
        assert_eq!(nl.net(a).fanout(), 2);
    }
}
