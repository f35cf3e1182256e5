//! `imdiff-nn` — a small, self-contained neural-network substrate.
//!
//! This crate replaces the PyTorch dependency of the original ImDiffusion
//! implementation with a pure-Rust stack:
//!
//! * a dense `f32` [`Tensor`] with NumPy-style broadcasting,
//! * reverse-mode automatic differentiation ([`backward`]),
//! * common layers ([`layers`]: linear, layer-norm, multi-head attention,
//!   transformer encoder blocks, GRU/LSTM cells, 1-D convolution,
//!   embeddings),
//! * optimizers ([`optim`]: SGD with momentum, Adam),
//! * deterministic, seedable random initialisation ([`rng`], [`init`]).
//!
//! # Design notes
//!
//! The autodiff engine is graph-based rather than tape-based: every tensor
//! produced by an operation holds reference-counted edges to its parents and
//! a backward closure. Calling [`backward`] on a scalar loss topologically
//! sorts the reachable graph and accumulates gradients into every tensor
//! created with `requires_grad = true`. Graphs are freed when the loss
//! tensor is dropped; leaf parameters persist across steps.
//!
//! Shape mismatches are treated as programmer errors and panic with a
//! descriptive message (the convention of every mainstream tensor library);
//! fallible *construction* APIs return [`NnError`].
//!
//! Inference code should run inside [`no_grad`], which skips graph
//! construction entirely:
//!
//! ```
//! use imdiff_nn::{no_grad, Tensor};
//! let w = Tensor::param_from_vec(vec![1.0, 2.0], &[2]).unwrap();
//! let y = no_grad(|| w.scale(3.0));
//! assert!(y.grad().is_none());
//! ```

mod arena;
mod autodiff;
pub mod codec;
mod error;
pub mod init;
pub mod layers;
pub mod obs;
pub mod ops;
pub mod optim;
pub mod pool;
pub mod rng;
pub mod serialize;
mod shape;
pub mod simd;
mod tensor;

pub use autodiff::{backward, is_grad_enabled, no_grad};
pub use error::NnError;
pub use shape::Shape;
pub use tensor::Tensor;

/// Runs `f` in tape-free forward-only mode: gradient tracking off (as in
/// [`no_grad`]) **plus** thread-local buffer recycling, so op outputs reuse
/// a small arena of buffers instead of hitting the allocator per op.
///
/// Results are bit-identical to `no_grad(f)` on the same dispatch tier —
/// the arena only changes where buffers live, never what ops compute.
pub fn forward_only<T>(f: impl FnOnce() -> T) -> T {
    if obs::enabled() {
        obs::counter("nn.forward_only", 1);
    }
    no_grad(|| arena::scope(f))
}

/// [`forward_only`] when `on`, plain [`no_grad`] otherwise. Callers resolve
/// the mode once (e.g. via [`forward_only_enabled`]) on the coordinating
/// thread and pass the decision into worker closures, since thread-local
/// overrides do not propagate into pool workers.
pub fn forward_only_if<T>(on: bool, f: impl FnOnce() -> T) -> T {
    if on {
        forward_only(f)
    } else {
        no_grad(f)
    }
}

thread_local! {
    static FWD_OVERRIDE: std::cell::Cell<Option<bool>> =
        const { std::cell::Cell::new(None) };
}

/// Whether inference entry points should use [`forward_only`]. On by
/// default; `IMDIFF_FWD=0` disables it process-wide (kill switch for
/// A/B comparison), and [`with_forward_only`] overrides it per scope.
pub fn forward_only_enabled() -> bool {
    if let Some(on) = FWD_OVERRIDE.with(|c| c.get()) {
        return on;
    }
    static ENV: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("IMDIFF_FWD").map_or(true, |v| v.trim() != "0")
    })
}

/// Scoped thread-local override of [`forward_only_enabled`] (tests, A/B).
pub fn with_forward_only<T>(on: bool, f: impl FnOnce() -> T) -> T {
    struct Guard(Option<bool>);
    impl Drop for Guard {
        fn drop(&mut self) {
            FWD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let prev = FWD_OVERRIDE.with(|c| c.replace(Some(on)));
    let _guard = Guard(prev);
    f()
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NnError>;
