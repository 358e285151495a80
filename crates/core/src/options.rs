//! LACC configuration: the paper's optimizations as toggles, so the
//! ablation experiment can turn each one off.
//!
//! Construct options either directly (struct literal, for the preset
//! constructors, the ablation rows and tests) or through
//! [`LaccOpts::builder`], which validates the numeric knobs a caller such
//! as the CLI takes from its user, so they cannot smuggle out-of-range
//! values into a run.

use crate::EngineSelect;
use gblas::dist::{DistOpts, Wire};

/// Seed of the load-balancing permutation [`LaccOpts::permute`] applies.
pub const PERMUTE_SEED: u64 = 0xC0_FFEE;

/// Options controlling a LACC run.
#[derive(Clone, Copy, Debug)]
pub struct LaccOpts {
    /// Exploit Lemmas 1–2: track converged components, keep vectors sparse,
    /// and restrict each step to the Table I active subsets. Turning this
    /// off yields the "naive translation" dense-AS variant §IV-B warns
    /// about.
    pub use_sparsity: bool,
    /// Input fill at or above which an engine runs SpMV instead of SpMSpV
    /// (§V-A): the active fraction for LACC's conditional hooking
    /// (distributed and [`crate::lacc_serial`]), and for FastSV and label
    /// propagation the fraction of the input that changed last round. The
    /// caller decides from a count it already holds, so no primitive reads
    /// it. LACC's unconditional hooking does not read it either: it is
    /// skipped or pulled by the counts of active stars and nonstars
    /// ([`crate::UncondHook`]).
    pub spmv_threshold: f64,
    /// Communication options for the distributed primitives (§V-B).
    pub dist: DistOpts,
    /// Relabel the vertices before distributing the matrix: CombBLAS'
    /// random symmetric permutation, seeded with [`PERMUTE_SEED`], with the
    /// graph's hubs (up to 16 vertices of at least 8× the mean degree)
    /// swapped onto ids 0, 1, 2, … so every engine's hooks toward the
    /// smaller id reach them first
    /// ([`lacc_graph::permute::Permutation::load_balancing`]).
    pub permute: bool,
    /// Which connected-components engine runs (see
    /// [`crate::EngineSelect`]). Defaults to LACC, preserving bit-identity
    /// with the serial reference.
    pub engine: EngineSelect,
}

impl Default for LaccOpts {
    fn default() -> Self {
        LaccOpts {
            use_sparsity: true,
            spmv_threshold: 0.5,
            dist: DistOpts::default(),
            permute: true,
            engine: EngineSelect::default(),
        }
    }
}

impl LaccOpts {
    /// A validating builder seeded with [`LaccOpts::default`].
    ///
    /// ```
    /// use lacc::{EngineSelect, LaccOpts};
    ///
    /// let opts = LaccOpts::builder()
    ///     .spmv_threshold(0.7)?
    ///     .engine(EngineSelect::Fastsv)
    ///     .build();
    /// assert_eq!(opts.spmv_threshold, 0.7);
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
    /// hot-rank broadcast, legacy wire) — isolates the §V-B optimizations.
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

/// Validating builder for [`LaccOpts`] (see [`LaccOpts::builder`]): one
/// setter per knob a caller outside this crate sets.
///
/// Numeric setters are fallible and return [`OptsError`] on out-of-range
/// input, so they chain with `?`; the other setters cannot fail.
#[derive(Clone, Debug)]
pub struct LaccOptsBuilder {
    opts: LaccOpts,
}

impl LaccOptsBuilder {
    /// Sets [`LaccOpts::spmv_threshold`]. Must be a finite value in
    /// `0.0..=1.5` (above `1.0` means "never"; `1.5` is the conventional
    /// sentinel for that).
    pub fn spmv_threshold(mut self, t: f64) -> Result<Self, OptsError> {
        if !t.is_finite() || !(0.0..=1.5).contains(&t) {
            return Err(OptsError::new(
                "spmv-threshold",
                format!("{t} is not in 0.0..=1.5"),
            ));
        }
        self.opts.spmv_threshold = t;
        Ok(self)
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
        assert_eq!(o.spmv_threshold, 0.5);
        assert_eq!(o.dist.wire, Wire::Compact);
        assert!(o.dist.hot_threshold.is_finite());
        // The five run options, spelled out: a sixth fails to compile here.
        let LaccOpts {
            use_sparsity: _,
            spmv_threshold: _,
            dist: _,
            permute: _,
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
            .spmv_threshold(1.5)
            .unwrap()
            .engine(EngineSelect::Fastsv)
            .wire(Wire::Legacy)
            .build();
        assert_eq!(o.spmv_threshold, 1.5);
        assert_eq!(o.engine, EngineSelect::Fastsv);
        assert_eq!(o.dist.wire, Wire::Legacy);
        // The setters touch nothing else.
        let d = LaccOpts::default();
        assert_eq!((o.use_sparsity, o.permute), (d.use_sparsity, d.permute));
        assert_eq!(o.dist.alltoall, d.dist.alltoall);
        assert_eq!(o.dist.hot_threshold, d.dist.hot_threshold);
    }

    #[test]
    fn builder_rejects_out_of_range_values() {
        assert_eq!(
            LaccOpts::builder().spmv_threshold(1.6).unwrap_err().field(),
            "spmv-threshold"
        );
        assert!(LaccOpts::builder().spmv_threshold(-0.1).is_err());
        let err = LaccOpts::builder().spmv_threshold(f64::NAN).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid spmv-threshold: NaN is not in 0.0..=1.5"
        );
    }

    #[test]
    fn naive_comm_is_legacy_pairwise_and_native_width() {
        let o = LaccOpts::naive_comm();
        assert_eq!(o.dist.wire, Wire::Legacy);
        assert_eq!(o.dist.alltoall, dmsim::AllToAll::Pairwise);
        let d = LaccOpts::default();
        assert_eq!(d.dist.wire, Wire::Compact, "frames ride the compact wire");
        // The three §V-B levers, spelled out: a fourth field fails to
        // compile here.
        let DistOpts {
            alltoall: _,
            hot_threshold: _,
            wire: _,
        } = d.dist;
    }
}
