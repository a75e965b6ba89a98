//! Integration: every benchmark kernel computes reference-identical
//! results on every machine configuration it supports.
//!
//! This is the workspace's backbone correctness claim: the simulator is
//! functional as well as timed, so a kernel scheduled onto the baseline,
//! the S / S-O / S-O-D dataflow machines, or the M / M-D MIMD machines
//! must produce the same answers as the pure-Rust reference
//! implementation (bit-exact for the crypto kernels, tolerance-checked
//! for floating point).

use dlp_core::{run_kernel, ExperimentParams, MachineConfig};
use dlp_kernels::suite;

/// Small record counts keep the full 13-kernel × 6-config sweep fast in
/// debug builds while still exercising multiple revitalizations/unrolls.
const RECORDS: usize = 24;

fn sweep(configs: &[MachineConfig]) {
    let params = ExperimentParams::default();
    for kernel in suite() {
        if !kernel.in_perf_suite() {
            continue;
        }
        for &config in configs {
            let out = run_kernel(kernel.as_ref(), config, RECORDS, &params)
                .unwrap_or_else(|e| panic!("{} on {config}: {e}", kernel.name()));
            assert!(
                out.verified(),
                "{} on {config}: first mismatch at output word {:?}",
                kernel.name(),
                out.mismatch
            );
            assert!(out.stats.cycles() > 0, "{} on {config}: no time elapsed", kernel.name());
            assert_eq!(out.records, RECORDS);
        }
    }
}

#[test]
fn all_kernels_verify_on_baseline() {
    sweep(&[MachineConfig::Baseline]);
}

#[test]
fn all_kernels_verify_on_simd_configs() {
    sweep(&[MachineConfig::S, MachineConfig::SO, MachineConfig::SOD]);
}

#[test]
fn all_kernels_verify_on_mimd_configs() {
    sweep(&[MachineConfig::M, MachineConfig::MD]);
}

#[test]
fn anisotropic_is_characterized_but_excluded() {
    // The paper's footnote 1: anisotropic-filter appears in Table 2 but
    // not in the performance tables. Its IR must still validate and agree
    // with its reference (the library-level tests cover that); here we
    // assert the exclusion flag that the experiment drivers honor.
    let k = suite()
        .into_iter()
        .find(|k| k.name() == "anisotropic-filter")
        .expect("kernel exists");
    assert!(!k.in_perf_suite());
    assert!(k.ir().validate().is_ok());
}

#[test]
fn highpassfilter_mimd_is_bit_exact_at_full_scale() {
    // Workload seed 5 at 2048 records puts some outputs near zero, where
    // a serial MIMD sum differs from the reference's tree sum by more than
    // the f32 tolerance; the MIMD program must sum in the tree order.
    let params = ExperimentParams { seed: 5, ..ExperimentParams::default() };
    let k = suite().into_iter().find(|k| k.name() == "highpassfilter").expect("suite kernel");
    for config in [MachineConfig::M, MachineConfig::MD] {
        let out = run_kernel(k.as_ref(), config, 2048, &params)
            .unwrap_or_else(|e| panic!("highpassfilter on {config}: {e}"));
        assert!(out.verified(), "highpassfilter on {config}: mismatch at {:?}", out.mismatch);
    }
}
