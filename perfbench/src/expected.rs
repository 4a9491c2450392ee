//! Checksums and simulated clocks of the twelve offload jobs, recorded
//! from the code this benchmark was written against. Simulated clocks are
//! exact, so any difference is a real change of the timing model or of the
//! work a job does; a mismatch prints the observed clock tuple or checksum,
//! from which this table is updated by hand after a deliberate change.
//!
//! gramschmidt/OMPi has no checksum: its float `reduction(+: nrm)` is
//! combined in OS-thread order, so its output bits vary from run to run
//! (see NOTES.md). Its outputs are checked against `App::reference`
//! instead.

/// One recorded job kind.
pub struct Recorded {
    pub checksum: Option<u64>,
    pub offload_s: f64,
    pub kernel_s: f64,
    pub memcpy_s: f64,
    pub launches: u64,
}

/// (label, checksum, offload_s, kernel_s, memcpy_s, launches)
type Row = (&'static str, Option<u64>, f64, f64, f64, u64);

const OFFLOAD: &[Row] = &[
    (
        "3dconv/cuda",
        Some(0x44c2fd0dca1f11c4),
        0.010426074686478758,
        0.005441599392361112,
        0.004984475294117646,
        1,
    ),
    (
        "3dconv/ompi",
        Some(0xb828e82e43732803),
        0.011727725077103759,
        0.0067432497829861115,
        0.004984475294117646,
        1,
    ),
    (
        "bicg/cuda",
        Some(0xc2641accc4c1515b),
        0.01356686142207925,
        0.008497748480902779,
        0.00506911294117647,
        2,
    ),
    (
        "bicg/ompi",
        Some(0xc2641accc4c1515b),
        0.01356686142207925,
        0.008497748480902779,
        0.00506911294117647,
        2,
    ),
    (
        "atax/cuda",
        Some(0xe5f57a1d43f7d1c4),
        0.013512042598549837,
        0.008497748480902779,
        0.005014294117647058,
        2,
    ),
    (
        "atax/ompi",
        Some(0xe5f57a1d43f7d1c4),
        0.013512042598549837,
        0.008497748480902779,
        0.005014294117647058,
        2,
    ),
    (
        "mvt/cuda",
        Some(0xde98a26beacb6763),
        0.01362254179074755,
        0.008498610026041667,
        0.005123931764705881,
        2,
    ),
    (
        "mvt/ompi",
        Some(0xde98a26beacb6763),
        0.01362254179074755,
        0.008498610026041667,
        0.005123931764705881,
        2,
    ),
    (
        "gemm/cuda",
        Some(0xe12f6bae635e7f3a),
        0.28770425285488155,
        0.2826697775607639,
        0.005034475294117647,
        1,
    ),
    (
        "gemm/ompi",
        Some(0xd01b707ffb59ce18),
        0.28770425285488155,
        0.2826697775607639,
        0.005034475294117647,
        1,
    ),
    (
        "gramschmidt/cuda",
        Some(0x75feb1924edbe021),
        0.07550118248365995,
        0.07509277777777759,
        0.0004084047058823529,
        768,
    ),
    ("gramschmidt/ompi", None, 0.07385899542483607, 0.06680027777777722, 0.007058717647058845, 768),
];

/// The recorded values of one offload job kind (`app/cuda`, `app/ompi`).
pub fn offload(label: &str) -> Option<Recorded> {
    OFFLOAD.iter().find(|r| r.0 == label).map(
        |&(_, checksum, offload_s, kernel_s, memcpy_s, launches)| Recorded {
            checksum,
            offload_s,
            kernel_s,
            memcpy_s,
            launches,
        },
    )
}
