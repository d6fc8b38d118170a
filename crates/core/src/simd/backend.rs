//! Runtime ISA backend selection.
//!
//! The paper's build system compiles one kernel library per ISA
//! (AVX-512/AVX/SSE on x86, ASIMD on ARM) and picks at configure time.
//! We decide once per process at run time instead: the first caller of
//! [`active_backend`] probes the CPU (`is_x86_feature_detected!` /
//! `is_aarch64_feature_detected!`), honors the `FUSEDMM_FORCE_BACKEND`
//! environment variable, and caches the answer for the lifetime of the
//! process. Everything downstream — the slice primitives in
//! [`crate::simd`], the per-ISA kernel entries in
//! [`crate::genkern::table`] — routes through that single decision, so
//! there is no per-operation feature sniffing on the hot path.
//!
//! The one override: `FUSEDMM_FORCE_BACKEND=scalar|avx2|avx512|neon`
//! requests one backend by name (`scalar` pins the portable fallback,
//! which every CPU can run). If the CPU cannot execute the requested
//! one, selection **falls back to the best available backend** rather
//! than aborting — this is deliberate, so CI can set
//! `FUSEDMM_FORCE_BACKEND=avx512` on every runner and non-AVX-512
//! machines exercise the dispatch-miss path while AVX-512 machines run
//! the real thing. The fallback is recorded in
//! [`CpuFeatures::forced_unavailable`].

use std::sync::OnceLock;

/// Which SIMD implementation the process executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// x86-64 AVX-512F: 16-lane `__m512` arithmetic with fused
    /// multiply-add (`_mm512_fmadd_ps`) and native masked tail
    /// loads/stores.
    Avx512,
    /// x86-64 AVX2 + FMA: 8-lane `__m256` arithmetic with true fused
    /// multiply-add (`_mm256_fmadd_ps`).
    Avx2Fma,
    /// AArch64 NEON/ASIMD: an 8-lane vector emulated as a pair of
    /// 4-lane `float32x4_t` q-registers with `vfmaq_f32`.
    Neon,
    /// Portable lane loops (the seed implementation) — correct on every
    /// target; LLVM autovectorizes them to whatever the build target
    /// guarantees (SSE2 on default x86-64).
    Scalar,
}

impl Backend {
    /// Every backend, in preference order.
    pub const ALL: &'static [Backend] =
        &[Backend::Avx512, Backend::Avx2Fma, Backend::Neon, Backend::Scalar];

    /// Whether this backend can execute on the current CPU. `Scalar`
    /// is always available; the ISA backends require both the matching
    /// compile-time architecture and the runtime CPU features.
    pub fn is_available(self) -> bool {
        match self {
            Backend::Scalar => true,
            Backend::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // The zmm kernels finish reductions with ymm FMA
                    // cleanup (see `simd::avx512`), so AVX2+FMA is
                    // part of the executable contract. Every AVX-512F
                    // part ships both, but probe explicitly anyway.
                    is_x86_feature_detected!("avx512f")
                        && is_x86_feature_detected!("avx2")
                        && is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Backend::Avx2Fma => {
                #[cfg(target_arch = "x86_64")]
                {
                    is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            Backend::Neon => {
                #[cfg(target_arch = "aarch64")]
                {
                    std::arch::is_aarch64_feature_detected!("neon")
                }
                #[cfg(not(target_arch = "aarch64"))]
                {
                    false
                }
            }
        }
    }

    /// Human-readable name used in reports and bench output.
    pub fn label(self) -> &'static str {
        match self {
            Backend::Avx512 => "avx512",
            Backend::Avx2Fma => "avx2+fma",
            Backend::Neon => "neon",
            Backend::Scalar => "scalar",
        }
    }

    /// Number of f32 lanes in this backend's widest register: 16 for
    /// AVX-512 zmm, 8 everywhere else — the unit a kernel shape's
    /// main pass is counted in (see
    /// [`KernelSpec::default_for`](crate::genkern::KernelSpec::default_for)).
    pub fn lanes(self) -> usize {
        match self {
            Backend::Avx512 => 16,
            _ => crate::simd::VLEN,
        }
    }

    /// Parse a `FUSEDMM_FORCE_BACKEND` value. Accepts the canonical
    /// labels plus common spellings; `None` for anything else.
    fn parse(name: &str) -> Option<Backend> {
        match name.trim().to_ascii_lowercase().as_str() {
            "avx512" | "avx512f" | "avx-512" => Some(Backend::Avx512),
            "avx2" | "avx2+fma" | "avx2fma" => Some(Backend::Avx2Fma),
            "neon" | "asimd" => Some(Backend::Neon),
            "scalar" | "portable" => Some(Backend::Scalar),
            _ => None,
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The backend named by `FUSEDMM_FORCE_BACKEND`, if the variable is
/// set to a recognized name (see [`Backend::parse`] spellings).
/// Unrecognized values are ignored rather than fatal.
fn requested_backend() -> Option<Backend> {
    match std::env::var("FUSEDMM_FORCE_BACKEND") {
        Ok(v) if !v.is_empty() && v != "0" => Backend::parse(&v),
        _ => None,
    }
}

/// The one-time decision, captured together with the env state that
/// drove it so [`cpu_features`] can never attribute a backend to an
/// env state it did not see.
#[derive(Debug, Clone, Copy)]
struct Decision {
    backend: Backend,
    /// `Some(requested)` when `FUSEDMM_FORCE_BACKEND` named a backend
    /// this CPU cannot run and selection fell back.
    forced_unavailable: Option<Backend>,
}

static ACTIVE: OnceLock<Decision> = OnceLock::new();

fn best_available() -> Backend {
    for &b in Backend::ALL {
        if b.is_available() {
            return b;
        }
    }
    Backend::Scalar
}

fn decide_backend() -> Decision {
    *ACTIVE.get_or_init(|| match requested_backend() {
        Some(req) if req.is_available() => Decision { backend: req, forced_unavailable: None },
        // Requested ISA missing on this CPU: degrade to the best real
        // backend and record the miss (the CI fallback arm asserts
        // this path keeps everything correct).
        Some(req) => Decision { backend: best_available(), forced_unavailable: Some(req) },
        None => Decision { backend: best_available(), forced_unavailable: None },
    })
}

/// The backend this process runs on, decided once: the
/// `FUSEDMM_FORCE_BACKEND` choice when it is executable here, otherwise
/// the best ISA the CPU supports.
pub fn active_backend() -> Backend {
    decide_backend().backend
}

/// What the CPU offers and what we chose — recorded by benchmark
/// binaries so measurements are attributable to a hardware path.
#[derive(Debug, Clone)]
pub struct CpuFeatures {
    /// Compile-time architecture (`std::env::consts::ARCH`).
    pub arch: &'static str,
    /// Runtime-detected ISA features relevant to kernel selection,
    /// as `(name, present)` pairs.
    pub detected: Vec<(&'static str, bool)>,
    /// Set when `FUSEDMM_FORCE_BACKEND` named a backend this CPU
    /// cannot execute and selection fell back to [`CpuFeatures::backend`].
    pub forced_unavailable: Option<Backend>,
    /// The backend the process executes (see [`active_backend`]).
    pub backend: Backend,
}

/// Probe the CPU and report the detected features and chosen backend.
pub fn cpu_features() -> CpuFeatures {
    #[cfg(target_arch = "x86_64")]
    let detected = vec![
        ("avx2", is_x86_feature_detected!("avx2")),
        ("fma", is_x86_feature_detected!("fma")),
        ("avx512f", is_x86_feature_detected!("avx512f")),
    ];
    #[cfg(target_arch = "aarch64")]
    let detected = vec![("neon", std::arch::is_aarch64_feature_detected!("neon"))];
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let detected = Vec::new();

    let decision = decide_backend();
    CpuFeatures {
        arch: std::env::consts::ARCH,
        detected,
        forced_unavailable: decision.forced_unavailable,
        backend: decision.backend,
    }
}

impl std::fmt::Display for CpuFeatures {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cpu: {}", self.arch)?;
        for (name, present) in &self.detected {
            write!(f, " {name}={}", if *present { "yes" } else { "no" })?;
        }
        write!(f, " | simd backend: {}", self.backend)?;
        if let Some(req) = self.forced_unavailable {
            write!(f, " (FUSEDMM_FORCE_BACKEND={req} unavailable, fell back)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_always_available() {
        assert!(Backend::Scalar.is_available());
    }

    #[test]
    fn active_backend_is_available_and_stable() {
        let b = active_backend();
        assert!(b.is_available());
        assert_eq!(b, active_backend());
    }

    #[test]
    fn at_most_one_arch_backend_per_target() {
        // A single build can never see both x86 and ARM backends.
        assert!(!(Backend::Avx2Fma.is_available() && Backend::Neon.is_available()));
        assert!(!(Backend::Avx512.is_available() && Backend::Neon.is_available()));
    }

    #[test]
    fn avx512_implies_avx2() {
        // The availability contract the zmm kernels rely on for their
        // ymm cleanup sequences.
        if Backend::Avx512.is_available() {
            assert!(Backend::Avx2Fma.is_available());
        }
    }

    #[test]
    fn report_names_the_active_backend() {
        let report = cpu_features();
        assert_eq!(report.backend, active_backend());
        let text = report.to_string();
        assert!(text.contains("simd backend:"));
        assert!(text.contains(report.backend.label()));
    }

    #[test]
    fn labels_are_distinct() {
        let mut labels: Vec<&str> = Backend::ALL.iter().map(|b| b.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), Backend::ALL.len());
    }

    #[test]
    fn force_backend_names_parse() {
        assert_eq!(Backend::parse("avx512"), Some(Backend::Avx512));
        assert_eq!(Backend::parse("AVX-512"), Some(Backend::Avx512));
        assert_eq!(Backend::parse("avx2"), Some(Backend::Avx2Fma));
        assert_eq!(Backend::parse("neon"), Some(Backend::Neon));
        assert_eq!(Backend::parse("scalar"), Some(Backend::Scalar));
        assert_eq!(Backend::parse("riscv"), None);
    }

    #[test]
    fn lanes_match_register_width() {
        assert_eq!(Backend::Avx512.lanes(), 16);
        assert_eq!(Backend::Avx2Fma.lanes(), 8);
        assert_eq!(Backend::Scalar.lanes(), 8);
    }
}
