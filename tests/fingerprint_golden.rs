//! Golden program fingerprints: the build-stability contract.
//!
//! [`uve_core::program_fingerprint`] is FNV-1a over a canonical byte
//! encoding of the assembled program, so the same source kernel hashes to
//! the same `u64` on every build, rustc version, and machine. That is
//! what makes the sweep service's durable cache (PR 9) *durable*: a cache
//! written by yesterday's binary must hit under today's.
//!
//! These constants are pinned values of that contract. If one changes,
//! either (a) the kernel's generated code genuinely changed — update the
//! constant **knowing every persisted cache goes cold**, and say so in
//! the commit — or (b) the fingerprint or ISA encoder changed behavior,
//! which is exactly the regression this test exists to catch.

use uve_core::program_fingerprint;
use uve_kernels::Flavor;
use uve_sweep::{job_key, resolve, rows_digest, run_serial, SweepSpec, MODEL_EPOCH};

fn fp(kernel: &str, flavor: Flavor) -> u64 {
    let bench = resolve(kernel, true).expect("catalog kernel");
    program_fingerprint(&bench.program(flavor))
}

#[test]
fn program_fingerprints_are_pinned() {
    let golden: &[(&str, Flavor, u64)] = &[
        ("saxpy", Flavor::Uve, 0xd17e97efd0723f34),
        ("saxpy", Flavor::Scalar, 0x83f4523a9a0fc4b4),
        ("memcpy", Flavor::Uve, 0x5a890e89e663f55b),
        ("stream", Flavor::Sve, 0x2e2b56a77498f5e6),
        ("mamr-ind", Flavor::Uve, 0x06db9f22b3b52d8e),
        ("covariance", Flavor::Neon, 0xff0b2f9c95167a2f),
    ];
    for &(kernel, flavor, want) in golden {
        let got = fp(kernel, flavor);
        assert_eq!(
            got, want,
            "{kernel}/{flavor:?}: fingerprint {got:#018x} != pinned {want:#018x} \
             (a drift here silently invalidates every durable sweep cache)"
        );
    }
}

#[test]
fn job_keys_are_pinned() {
    // job_key folds the program fingerprint with the full point identity,
    // so pinning a couple of keys pins the whole cache-addressing chain.
    let spec = SweepSpec::small_default();
    let points = spec.points().expect("plan small grid");
    let golden: &[(usize, u64)] = &[(0, 0x11c548182c61bd8f), (1, 0xa5cd9bb644d2efcc)];
    for &(i, want) in golden {
        let got = job_key(&points[i]).expect("job key");
        assert_eq!(got, want, "job_key(points[{i}] = {:?}) drifted", points[i]);
    }
}

#[test]
fn model_epoch_pins_canary_rows() {
    // The durable cache trusts a row for as long as its job key is valid,
    // and the key carries the model epoch, not the model's output. This
    // canary ties the two together: any change to a simulated output of
    // the grid (single-core replay and sharded 2-core lockstep, UVE and
    // scalar) changes the digest, and must come with a `MODEL_EPOCH` bump
    // and a re-pin of both values here.
    let spec = SweepSpec {
        small: true,
        kernels: ["memcpy", "saxpy", "gemm"].map(String::from).to_vec(),
        flavors: vec![Flavor::Uve, Flavor::Scalar],
        cores: vec![1, 2],
        ..SweepSpec::default()
    };
    let (rows, _) = run_serial(&spec).expect("canary grid runs");
    assert_eq!(rows.len(), 12);
    let got = (MODEL_EPOCH, rows_digest(&rows));
    assert_eq!(
        got,
        (1, 0x1e4329a398f411ed),
        "canary rows digest {:#018x} at epoch {}: model output changed without a MODEL_EPOCH bump",
        got.1,
        got.0
    );
}

#[test]
fn fingerprint_distinguishes_flavors_and_kernels() {
    assert_ne!(fp("saxpy", Flavor::Uve), fp("saxpy", Flavor::Scalar));
    assert_ne!(fp("saxpy", Flavor::Uve), fp("memcpy", Flavor::Uve));
}
