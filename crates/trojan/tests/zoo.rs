//! Every zoo-generated trojaned netlist must pass the structural lint
//! gate — the same gate `htd zoo` applies before characterizing a
//! grid point — and keep the AES functionally intact.

use htd_aes::AesNetlist;
use htd_fabric::{Device, DeviceConfig, Placement};
use htd_netlist::lint;
use htd_trojan::{insert, ZooConfig};

#[test]
fn zoo_grid_lints_clean_and_inserts_everywhere() {
    let cfg = ZooConfig::default();
    for spec in cfg.generate().expect("default grid is valid") {
        let mut aes = AesNetlist::generate().expect("generates");
        let device = Device::new(DeviceConfig::virtex5_lx30_scaled());
        let mut placement = Placement::place(aes.netlist(), &device).expect("places");
        let trojan = insert(&mut aes, &mut placement, &spec)
            .unwrap_or_else(|e| panic!("{}: insert failed: {e}", spec.name));
        assert!(!trojan.cells.is_empty(), "{}: no cells added", spec.name);
        let diagnostics = lint(aes.netlist());
        assert!(
            diagnostics.is_clean(),
            "{}: lints dirty: {:?}",
            spec.name,
            diagnostics.lints()
        );
    }
}
