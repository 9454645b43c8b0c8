//! Distributed minimum cut in the CONGEST model.
//!
//! This crate reproduces **Nanongkai, "Brief Announcement: Almost-Tight
//! Approximation Distributed Algorithm for Minimum Cut" (PODC 2014)**:
//!
//! * an exact distributed minimum-cut algorithm running in
//!   `Õ((√n + D)·poly(λ))` CONGEST rounds, built from Thorup's greedy tree
//!   packing, a Kutten–Peleg-style `Õ(√n + D)` distributed MST, and the
//!   paper's `Õ(√n + D)` algorithm for the **minimum cut that 1-respects a
//!   tree** (Section 2, via Karger's identity `C(v↓) = δ↓(v) − 2ρ↓(v)`);
//! * a `(1+ε)`-approximation in `Õ((√n + D)/poly(ε))` rounds via Karger's
//!   skeleton sampling;
//! * sequential oracles (Stoer–Wagner, brute force, greedy packing, the
//!   1- and 2-respecting dynamic programs, the Matula-style estimator)
//!   used for verification and baselines;
//! * distributed baselines in the spirit of Ghaffari–Kuhn (2+ε) and Su's
//!   concurrent sampling algorithm.
//!
//! # Quick start
//!
//! ```
//! use mincut::dist::driver::{exact_mincut, ExactConfig};
//!
//! # fn main() -> Result<(), mincut::MinCutError> {
//! let planted = graphs::generators::clique_pair(8, 3).expect("valid parameters");
//! let result = exact_mincut(&planted.graph, &ExactConfig::default())?;
//! assert_eq!(result.cut.value, 3);
//! println!("min cut {} found in {} CONGEST rounds", result.cut.value, result.rounds);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod dist;
pub mod error;
pub mod figure1;
pub mod reference;
pub mod seq;
pub mod verify;

pub use error::MinCutError;
