//! One funnel for the CLI's stderr status chatter.
//!
//! Every `wrote <path>` confirmation and every warning the
//! `rlnc-experiments` binary prints goes through this module, so the
//! `--quiet` flag has exactly one switch to flip. The contract, pinned by
//! `tests/cli_smoke.rs`:
//!
//! * [`note`] — progress/confirmation lines. Printed to stderr; silenced
//!   by `--quiet`. Never part of the machine-readable contract.
//! * [`warn`] — problems the user must see (inconsistent findings,
//!   unparsable resume files). Printed to stderr **even under `--quiet`**.
//! * stdout and exit codes are never touched here: piped output
//!   (`rlnc-experiments --only e1 > e1.md`) and scripted exit-code checks
//!   behave identically with and without `--quiet`.

use std::sync::atomic::{AtomicBool, Ordering};

static QUIET: AtomicBool = AtomicBool::new(false);

/// Silences [`note`] lines for the rest of the process (the `--quiet`
/// flag). Warnings keep printing.
pub fn set_quiet(quiet: bool) {
    QUIET.store(quiet, Ordering::Relaxed);
}

/// Whether `--quiet` is in effect.
pub fn quiet() -> bool {
    QUIET.load(Ordering::Relaxed)
}

/// Prints a status line (e.g. `wrote sweep.json`) to stderr unless
/// `--quiet` is set.
pub fn note(message: &str) {
    if !quiet() {
        eprintln!("{message}");
    }
}

/// Prints a warning to stderr. Not silenced by `--quiet`: a warning the
/// user can accidentally suppress is a warning that never happened.
pub fn warn(message: &str) {
    eprintln!("{message}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_flag_round_trips() {
        // Process-global, so restore the default for sibling tests.
        set_quiet(true);
        assert!(quiet());
        set_quiet(false);
        assert!(!quiet());
    }
}
