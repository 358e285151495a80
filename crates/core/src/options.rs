//! LACC configuration: the paper's optimizations as toggles, so the
//! ablation experiment can turn each one off.
//!
//! Construct options either directly (struct literal, for the preset
//! constructors and tests) or through [`LaccOpts::builder`], which
//! validates every numeric knob so callers such as the CLI cannot smuggle
//! out-of-range values into a run.

use crate::engine::EngineSelect;
use dmsim::AllToAll;
use gblas::dist::{DistOpts, Wire};

/// Options controlling a LACC run.
#[derive(Clone, Copy, Debug)]
pub struct LaccOpts {
    /// Exploit Lemmas 1–2: track converged components, keep vectors sparse,
    /// and restrict each step to the Table I active subsets. Turning this
    /// off yields the "naive translation" dense-AS variant §IV-B warns
    /// about.
    pub use_sparsity: bool,
    /// Communication options for the distributed primitives (§V-B).
    pub dist: DistOpts,
    /// Apply a random symmetric permutation before distributing the matrix
    /// (CombBLAS' load balancing).
    pub permute: bool,
    /// Seed for the load-balancing permutation.
    pub permute_seed: u64,
    /// Bound on LACC rounds (AS converges in ≤ ~2·log₂ n). A run that
    /// has not converged after this many fails with an error naming the
    /// bound; FastSV and label propagation carry their own bounds
    /// (`8·⌈log₂ n⌉ + 32` and `n + 2`) and ignore this one.
    pub max_iters: usize,
    /// Which connected-components engine runs (see
    /// [`crate::engine::EngineSelect`]). Defaults to LACC, preserving
    /// bit-identity with the serial reference.
    pub engine: EngineSelect,
}

impl Default for LaccOpts {
    fn default() -> Self {
        LaccOpts {
            use_sparsity: true,
            dist: DistOpts::default(),
            permute: true,
            permute_seed: 0xC0_FFEE,
            max_iters: 200,
            engine: EngineSelect::default(),
        }
    }
}

impl LaccOpts {
    /// A validating builder seeded with [`LaccOpts::default`].
    ///
    /// ```
    /// use lacc::LaccOpts;
    ///
    /// let opts = LaccOpts::builder()
    ///     .spmv_threshold(0.7)?
    ///     .max_iters(64)?
    ///     .permute(false)
    ///     .build();
    /// assert_eq!(opts.dist.spmv_threshold, 0.7);
    /// # Ok::<(), lacc::OptsError>(())
    /// ```
    pub fn builder() -> LaccOptsBuilder {
        LaccOptsBuilder {
            opts: LaccOpts::default(),
        }
    }

    /// The dense Awerbuch–Shiloach ablation: no converged-component
    /// tracking, so nothing retires and every vector stays full (what a
    /// direct translation of Algorithm 1 to linear algebra would do).
    pub fn dense_as() -> Self {
        LaccOpts {
            use_sparsity: false,
            ..Default::default()
        }
    }

    /// LACC with the naive communication stack (pairwise all-to-all, no
    /// hot-rank broadcast) — isolates the §V-B optimizations.
    pub fn naive_comm() -> Self {
        LaccOpts {
            dist: DistOpts::naive(),
            ..Default::default()
        }
    }
}

/// A rejected [`LaccOpts::builder`] setting: which knob, and why.
#[derive(Clone, Debug, PartialEq)]
pub struct OptsError {
    field: &'static str,
    message: String,
}

impl OptsError {
    pub(crate) fn new(field: &'static str, message: impl Into<String>) -> Self {
        OptsError {
            field,
            message: message.into(),
        }
    }

    /// The option name that failed validation (CLI flag spelling).
    pub fn field(&self) -> &'static str {
        self.field
    }
}

impl std::fmt::Display for OptsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}: {}", self.field, self.message)
    }
}

impl std::error::Error for OptsError {}

/// Validating builder for [`LaccOpts`] (see [`LaccOpts::builder`]).
///
/// Numeric setters are fallible and return [`OptsError`] on out-of-range
/// input, so they chain with `?`; boolean and seed setters cannot fail.
#[derive(Clone, Debug)]
pub struct LaccOptsBuilder {
    opts: LaccOpts,
}

impl LaccOptsBuilder {
    /// Enables or disables the Lemma 1–2 sparsity exploitation.
    pub fn use_sparsity(mut self, on: bool) -> Self {
        self.opts.use_sparsity = on;
        self
    }

    /// Input fill at or above which a caller that holds the count runs
    /// SpMV instead of SpMSpV (§V-A): the active fraction for LACC's
    /// conditional hooking (distributed and `lacc_serial`), and for FastSV
    /// and label propagation the fraction of the input that changed last
    /// round. No primitive reads it, and LACC's unconditional hooking —
    /// whose input is the nonstar subset (Table I) — is always SpMSpV.
    /// Must be a finite value in `0.0..=1.5` (above `1.0` means "never";
    /// `1.5` is the conventional sentinel for that).
    pub fn spmv_threshold(mut self, t: f64) -> Result<Self, OptsError> {
        if !t.is_finite() || !(0.0..=1.5).contains(&t) {
            return Err(OptsError::new(
                "spmv-threshold",
                format!("{t} is not in 0.0..=1.5"),
            ));
        }
        self.opts.dist.spmv_threshold = t;
        Ok(self)
    }

    /// Bound on LACC rounds. Must be at least 1; a run that exhausts it
    /// fails (see [`LaccOpts::max_iters`]).
    pub fn max_iters(mut self, n: usize) -> Result<Self, OptsError> {
        if n == 0 {
            return Err(OptsError::new("max-iters", "must be at least 1"));
        }
        self.opts.max_iters = n;
        Ok(self)
    }

    /// Hot-rank broadcast threshold `h` (requests per chunk entry above
    /// which a rank broadcasts instead of answering point-to-point). Must
    /// be positive and not NaN; `f64::INFINITY` disables the fallback.
    pub fn hot_threshold(mut self, h: f64) -> Result<Self, OptsError> {
        if h.is_nan() || h <= 0.0 {
            return Err(OptsError::new(
                "hot-threshold",
                format!("{h} is not a positive threshold"),
            ));
        }
        self.opts.dist.hot_threshold = h;
        Ok(self)
    }

    /// Selects the all-to-all algorithm for irregular exchanges.
    pub fn alltoall(mut self, algo: AllToAll) -> Self {
        self.opts.dist.alltoall = algo;
        self
    }

    /// Applies (or skips) the load-balancing random permutation.
    pub fn permute(mut self, on: bool) -> Self {
        self.opts.permute = on;
        self
    }

    /// Seed for the load-balancing permutation.
    pub fn permute_seed(mut self, seed: u64) -> Self {
        self.opts.permute_seed = seed;
        self
    }

    /// Selects the connected-components engine.
    pub fn engine(mut self, e: EngineSelect) -> Self {
        self.opts.engine = e;
        self
    }

    /// Selects the wire format of the distributed primitives' exchanges
    /// (see [`gblas::dist::Wire`]).
    pub fn wire(mut self, wire: Wire) -> Self {
        self.opts.dist.wire = wire;
        self
    }

    /// Enables or disables compute/communication overlap: hot-path
    /// exchanges are posted non-blocking and the modeled clock is refunded
    /// for exchange time hidden behind independent local compute. Results
    /// and traffic are bit-identical either way (see
    /// [`gblas::dist::DistOpts::overlap`]).
    pub fn overlap(mut self, on: bool) -> Self {
        self.opts.dist.overlap = on;
        self
    }

    /// Finishes the builder. Infallible: every fallible setter already
    /// validated its value.
    pub fn build(self) -> LaccOpts {
        self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_fully_optimized() {
        let o = LaccOpts::default();
        assert!(o.use_sparsity);
        assert_eq!(o.dist.wire, Wire::Compact);
        assert!(o.dist.hot_threshold.is_finite());
        // The six run options, spelled out: a seventh fails to compile here.
        let LaccOpts {
            use_sparsity: _,
            dist: _,
            permute: _,
            permute_seed: _,
            max_iters: _,
            engine: _,
        } = o;
    }

    #[test]
    fn dense_as_disables_sparsity() {
        let o = LaccOpts::dense_as();
        assert!(!o.use_sparsity);
    }

    #[test]
    fn naive_comm_keeps_sparsity() {
        let o = LaccOpts::naive_comm();
        assert!(o.use_sparsity);
        assert_eq!(o.dist.hot_threshold, f64::INFINITY);
    }

    #[test]
    fn builder_accepts_in_range_values() {
        let o = LaccOpts::builder()
            .use_sparsity(false)
            .spmv_threshold(1.5)
            .unwrap()
            .max_iters(10)
            .unwrap()
            .hot_threshold(2.0)
            .unwrap()
            .alltoall(AllToAll::Pairwise)
            .permute(false)
            .permute_seed(7)
            .engine(EngineSelect::Fastsv)
            .wire(Wire::Legacy)
            .overlap(false)
            .build();
        assert!(!o.use_sparsity);
        assert_eq!(o.dist.spmv_threshold, 1.5);
        assert_eq!(o.max_iters, 10);
        assert_eq!(o.dist.hot_threshold, 2.0);
        assert_eq!(o.dist.alltoall, AllToAll::Pairwise);
        assert!(!o.permute);
        assert_eq!(o.permute_seed, 7);
        assert_eq!(o.engine, EngineSelect::Fastsv);
        assert_eq!(o.dist.wire, Wire::Legacy);
        assert!(!o.dist.overlap);
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        assert_eq!(
            LaccOpts::builder().spmv_threshold(1.6).unwrap_err().field(),
            "spmv-threshold"
        );
        assert!(LaccOpts::builder().spmv_threshold(-0.1).is_err());
        assert!(LaccOpts::builder().spmv_threshold(f64::NAN).is_err());
        assert!(LaccOpts::builder().max_iters(0).is_err());
        assert!(LaccOpts::builder().hot_threshold(0.0).is_err());
        assert!(LaccOpts::builder().hot_threshold(f64::NAN).is_err());
        // Infinity explicitly disables the fallback, so it is accepted.
        assert!(LaccOpts::builder().hot_threshold(f64::INFINITY).is_ok());
        let err = LaccOpts::builder().max_iters(0).unwrap_err();
        assert_eq!(err.to_string(), "invalid max-iters: must be at least 1");
    }

    #[test]
    fn naive_comm_is_legacy_blocking_and_native_width() {
        let o = LaccOpts::naive_comm();
        assert_eq!(o.dist.wire, Wire::Legacy);
        assert!(!o.dist.overlap, "naive baseline runs strictly blocking");
        let d = LaccOpts::default();
        assert_eq!(d.dist.wire, Wire::Compact, "frames ride the compact wire");
        assert!(d.dist.overlap, "overlap is part of the optimized default");
        // The five levers, spelled out: a sixth field fails to compile here.
        let DistOpts {
            alltoall: _,
            hot_threshold: _,
            spmv_threshold: _,
            wire: _,
            overlap: _,
        } = d.dist;
    }
}
