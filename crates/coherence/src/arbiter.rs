//! The HTMLock-authorization (HLA) arbiter of the switchingMode mechanism
//! (§III-C): a single serialization point — logically at the LLC — that
//! guarantees **at most one TL/STL lock transaction exists at a time**.
//!
//! - An STL request (a running HTM transaction proactively switching) is
//!   granted only if no lock transaction is active; otherwise it is denied
//!   and the transaction aborts as it would have without switchingMode.
//! - A TL request (a thread that already holds the software fallback lock
//!   executing `hlbegin`) is granted immediately when idle, and *queued*
//!   when any holder is active. A TL request can arrive while a *TL*
//!   holder is still registered because the previous holder's release
//!   message may still be in flight when it drops the software lock (the
//!   next lock owner's request can overtake it on the NoC) — the queued
//!   entrant is granted when the release lands. At most one TL request
//!   can ever be queued because TL entry requires the (unique) software
//!   lock.

use sim_core::types::CoreId;

/// Arbiter response to a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HlaDecision {
    Granted,
    Denied,
    /// TL request parked behind an active STL holder; the caller will be
    /// granted (via a message) when the holder releases.
    Queued,
}

#[derive(Clone, Debug, Default, Hash)]
pub struct HlaArbiter {
    holder: Option<(CoreId, bool)>, // (core, is_stl)
    queued_tl: Option<CoreId>,
    /// Extra concurrent holders that exist only under the `double_grant`
    /// fault injection (see [`HlaArbiter::inject_double_grant`]).
    rogue: Vec<CoreId>,
    double_grant: bool,
    pub grants: u64,
    pub denials: u64,
}

impl HlaArbiter {
    pub fn new() -> HlaArbiter {
        HlaArbiter::default()
    }

    /// Enable the seeded `double_grant` protocol bug: STL requests that
    /// should be denied while a lock transaction is active are granted
    /// instead, and the mismatched releases that follow are tolerated
    /// rather than treated as fatal. The checkers must catch the
    /// resulting concurrent lock-mode critical sections.
    pub fn inject_double_grant(&mut self) {
        self.double_grant = true;
    }

    pub fn holder(&self) -> Option<(CoreId, bool)> {
        self.holder
    }

    /// Process an authorization request.
    pub fn request(&mut self, core: CoreId, stl: bool) -> HlaDecision {
        match (self.holder, stl) {
            (None, _) => {
                self.holder = Some((core, stl));
                self.grants += 1;
                HlaDecision::Granted
            }
            (Some(_), true) => {
                if self.double_grant {
                    self.rogue.push(core);
                    self.grants += 1;
                    return HlaDecision::Granted;
                }
                self.denials += 1;
                HlaDecision::Denied
            }
            (Some(_), false) => {
                // The holder may still be registered only because its
                // HlaRel is in flight; park the entrant until it lands.
                assert!(
                    self.queued_tl.is_none(),
                    "second queued TL implies a lock bug"
                );
                self.queued_tl = Some(core);
                HlaDecision::Queued
            }
        }
    }

    /// Release by the current holder. Returns a queued TL core that must
    /// now be granted (the caller sends it the grant message).
    pub fn release(&mut self, core: CoreId) -> Option<CoreId> {
        if let Some(i) = self.rogue.iter().position(|&c| c == core) {
            self.rogue.remove(i);
            return None;
        }
        match self.holder {
            Some((h, _)) if h == core => {
                self.holder = None;
                if let Some(tl) = self.queued_tl.take() {
                    self.holder = Some((tl, false));
                    self.grants += 1;
                    return Some(tl);
                }
                None
            }
            _ if self.double_grant => None,
            other => panic!("release by non-holder {core} (holder: {other:?})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_when_idle() {
        let mut a = HlaArbiter::new();
        assert_eq!(a.request(3, true), HlaDecision::Granted);
        assert_eq!(a.holder(), Some((3, true)));
    }

    #[test]
    fn denies_stl_when_busy() {
        let mut a = HlaArbiter::new();
        a.request(0, false);
        assert_eq!(a.request(1, true), HlaDecision::Denied);
        assert_eq!(a.holder(), Some((0, false)));
        assert_eq!(a.denials, 1);
    }

    #[test]
    fn queues_tl_behind_stl() {
        let mut a = HlaArbiter::new();
        a.request(0, true);
        assert_eq!(a.request(1, false), HlaDecision::Queued);
        // STL finishes; TL promoted.
        assert_eq!(a.release(0), Some(1));
        assert_eq!(a.holder(), Some((1, false)));
        assert_eq!(a.release(1), None);
        assert_eq!(a.holder(), None);
    }

    #[test]
    fn release_reopens() {
        let mut a = HlaArbiter::new();
        a.request(2, true);
        a.release(2);
        assert_eq!(a.request(5, true), HlaDecision::Granted);
    }

    #[test]
    #[should_panic(expected = "non-holder")]
    fn release_by_stranger_panics() {
        let mut a = HlaArbiter::new();
        a.request(2, true);
        a.release(3);
    }

    #[test]
    fn tl_behind_in_flight_release_queues() {
        // Holder 0's release message is still in flight when the next
        // lock owner's TL request arrives: it queues and is granted at
        // the release.
        let mut a = HlaArbiter::new();
        a.request(0, false);
        assert_eq!(a.request(1, false), HlaDecision::Queued);
        assert_eq!(a.release(0), Some(1));
        assert_eq!(a.holder(), Some((1, false)));
    }

    #[test]
    #[should_panic(expected = "second queued TL")]
    fn two_queued_tl_requests_panic() {
        let mut a = HlaArbiter::new();
        a.request(0, true);
        a.request(1, false);
        a.request(2, false);
    }

    #[test]
    fn double_grant_fault_breaks_exclusivity() {
        let mut a = HlaArbiter::new();
        a.inject_double_grant();
        assert_eq!(a.request(0, false), HlaDecision::Granted);
        // An STL request while a TL holder is active must be denied; the
        // injected bug grants it anyway.
        assert_eq!(a.request(1, true), HlaDecision::Granted);
        assert_eq!(a.grants, 2);
        // Both releases are tolerated in either order.
        assert_eq!(a.release(1), None);
        assert_eq!(a.release(0), None);
        assert_eq!(a.holder(), None);
    }
}
