//! Dense integer identifiers for trace entities.
//!
//! Every entity in a [`crate::Trace`] is identified by a dense `u32` index
//! into the corresponding table. Newtypes keep the index spaces from being
//! mixed up while staying `Copy` and hashable with trivial cost.

use serde::Serialize;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $short:expr) => {
        $(#[$doc])*
        #[derive(
            Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub u32);

        impl $name {
            /// Returns the raw index for table lookups.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Builds an id from a table index.
            ///
            /// # Panics
            /// Panics if `idx` does not fit in `u32`.
            #[inline]
            pub fn from_index(idx: usize) -> Self {
                Self(u32::try_from(idx).expect("id index overflow"))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($short, "{}"), self.0)
            }
        }

        impl From<$name> for usize {
            #[inline]
            fn from(id: $name) -> usize {
                id.index()
            }
        }
    };
}

id_type!(
    /// A processing element (processor/core) on which tasks execute.
    PeId,
    "pe"
);
id_type!(
    /// An indexed collection of chares (a chare array), or a runtime group.
    ArrayId,
    "arr"
);
id_type!(
    /// A single chare: a migratable object owning data and entry methods.
    ChareId,
    "ch"
);
id_type!(
    /// An entry-method *type* (the static method, not one execution of it).
    EntryId,
    "em"
);
id_type!(
    /// One execution of an entry method: a serial block in the trace.
    TaskId,
    "t"
);
id_type!(
    /// A dependency event (a message send or the receive that awoke a task).
    EventId,
    "ev"
);
id_type!(
    /// A message connecting a send event to the task it awakens.
    MsgId,
    "m"
);
id_type!(
    /// A declared message-type signature: one (source array/entry,
    /// destination array/entry) communication path with its expected
    /// pattern. Declaration-layer metadata, never part of the event
    /// stream.
    SigId,
    "sig"
);

/// Whether a chare (or entry method) belongs to the application or to the
/// runtime system. The paper keeps application and runtime partitions
/// separate through most of phase-finding (§3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum Kind {
    /// Application-level chare/entry: grouped by parent chare.
    Application,
    /// Runtime-internal chare/entry (e.g. `CkReductionMgr`): grouped by PE.
    Runtime,
}

impl Kind {
    /// True for [`Kind::Runtime`].
    #[inline]
    pub fn is_runtime(self) -> bool {
        matches!(self, Kind::Runtime)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let t = TaskId::from_index(42);
        assert_eq!(t.index(), 42);
        assert_eq!(t, TaskId(42));
        assert_eq!(usize::from(t), 42);
    }

    #[test]
    fn display_uses_short_prefix() {
        assert_eq!(PeId(3).to_string(), "pe3");
        assert_eq!(ChareId(7).to_string(), "ch7");
        assert_eq!(TaskId(0).to_string(), "t0");
        assert_eq!(EventId(1).to_string(), "ev1");
        assert_eq!(MsgId(9).to_string(), "m9");
        assert_eq!(ArrayId(2).to_string(), "arr2");
        assert_eq!(EntryId(5).to_string(), "em5");
        assert_eq!(SigId(4).to_string(), "sig4");
    }

    #[test]
    fn ordering_follows_raw_value() {
        assert!(TaskId(1) < TaskId(2));
        assert!(EventId(0) < EventId(10));
    }

    #[test]
    fn kind_predicates() {
        assert!(Kind::Runtime.is_runtime());
        assert!(!Kind::Application.is_runtime());
    }

    #[test]
    #[should_panic(expected = "id index overflow")]
    fn from_index_overflow_panics() {
        let _ = TaskId::from_index(usize::try_from(u32::MAX).unwrap() + 1);
    }
}
