//! `htd zoo` refuses bad grids. The heat map's worker invariance and its
//! pinned CSV are checked by the `zoo` row of `tests/contracts.rs`.

use std::process::Command;

#[test]
fn zoo_rejects_bad_grids() {
    for args in [
        vec!["zoo", "--sizes", "0"],
        vec!["zoo", "--sizes", "128", "--kinds", "ctr"],
        vec!["zoo", "--kinds", "nope"],
        vec!["zoo", "--placement", "everywhere"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_htd"))
            .args(&args)
            .output()
            .expect("htd spawns");
        assert!(!out.status.success(), "htd {args:?} unexpectedly succeeded");
    }
}
