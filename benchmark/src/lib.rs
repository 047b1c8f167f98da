//! `ibis-e2e`: one contention-gated end-to-end benchmark of the ibis
//! stack — in-situ ingest, post-analysis, query serving and cold open —
//! measured from outside through public functions, with every output
//! checked against a full-data-scan oracle before a number is printed.

pub mod catalog;
pub mod data;
pub mod fixture;
pub mod layers;
pub mod noise;
pub mod oracle;
pub mod rng;
pub mod runner;
pub mod stats;
pub mod trace;
