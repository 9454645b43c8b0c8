//! Offline stand-in for `serde`: marker traits plus no-op derive macros.
//!
//! The workspace derives `serde::Serialize`/`serde::Deserialize` on its id
//! types to declare intent (and to keep the door open for real
//! serialization once the environment has registry access), but nothing
//! actually serializes — so the traits are inert markers here. See
//! `crates/stubs/README.md`.

pub use serde_derive::{Deserialize, Serialize};

/// Marker counterpart of `serde::Serialize`.
pub trait Serialize {}

/// Marker counterpart of `serde::Deserialize`.
pub trait Deserialize {}
