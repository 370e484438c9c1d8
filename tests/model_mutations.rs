//! Conformance tests for `lsr-model`: every generator preset must
//! conform to its own static skeleton with zero M findings, the model
//! must be a function of the declaration layer alone, and each planted
//! mutation of the declarations (or of the trace) must trip exactly the
//! intended M code.

mod support;

use lsr_core::Config;
use lsr_model::{check, conforms, Finding, SkeletonModel};
use lsr_trace::{CommPattern, Kind, PeId, SigId, SigInfo, Time, Trace, TraceBuilder};

fn codes(tr: &Trace, cfg: &Config) -> Vec<&'static str> {
    let ls = lsr_core::extract(tr, cfg);
    let model = SkeletonModel::build(&tr.declarations());
    let report = check(&model, tr, &ls);
    report.findings.iter().map(Finding::code).collect()
}

/// The shared mutation substrate: jacobi-fig15 under the Charm++
/// configuration (neighbor halo exchange plus a runtime reduction, so
/// every pattern kind is represented).
fn substrate() -> (Trace, Config) {
    (lsr_apps::jacobi2d(&lsr_apps::JacobiParams::fig15()), Config::charm())
}

// ---------------------------------------------------------------------
// Clean sweep and staticness
// ---------------------------------------------------------------------

#[test]
fn all_presets_conform_to_their_own_skeleton() {
    for (name, tr, cfg) in support::presets() {
        let ls = lsr_core::extract(&tr, &cfg);
        let model = SkeletonModel::build(&tr.declarations());
        assert!(!model.degraded, "{name}: generated declarations are complete");
        assert!(!model.sigs.is_empty(), "{name}: presets declare signatures");
        let report = check(&model, &tr, &ls);
        assert!(report.is_clean(), "{name}: expected zero M findings, got {:?}", report.findings);
        assert!(conforms(&tr, &ls), "{name}: oracle must accept");
    }
}

/// The acceptance gate for staticness: truncating the event stream to
/// zero must leave the model bit-identical, because `build` only ever
/// sees the declaration tables.
#[test]
fn model_is_unchanged_when_the_event_stream_is_dropped() {
    for (name, tr, _) in support::presets() {
        let full = SkeletonModel::build(&tr.declarations());
        let mut stripped = tr.clone();
        stripped.tasks.clear();
        stripped.events.clear();
        stripped.msgs.clear();
        stripped.idles.clear();
        let empty = SkeletonModel::build(&stripped.declarations());
        assert_eq!(full, empty, "{name}: model must not depend on events");
    }
}

// ---------------------------------------------------------------------
// Planted mutations, one per code
// ---------------------------------------------------------------------

/// M001 (a): shrinking every neighbor signature's radius to zero makes
/// the halo exchange statically impossible.
#[test]
fn shrunken_neighbor_radius_trips_m001() {
    let (mut tr, cfg) = substrate();
    let mut narrowed = 0;
    for s in &mut tr.sigs {
        if let CommPattern::Neighbor { radius } = &mut s.pattern {
            assert!(*radius > 0, "jacobi halo signatures span neighbors");
            *radius = 0;
            narrowed += 1;
        }
    }
    assert!(narrowed > 0, "substrate must have neighbor signatures");
    let found = codes(&tr, &cfg);
    assert!(found.contains(&"M001"), "got {found:?}");
    assert!(!found.contains(&"M006"), "narrowing is not degradation");
}

/// M001 (b): deleting a signature orphans the traffic it admitted.
/// Signature ids stay dense (the table invariant), so the survivors are
/// renumbered.
#[test]
fn deleted_signature_trips_m001() {
    let (mut tr, cfg) = substrate();
    let victim = tr
        .sigs
        .iter()
        .position(|s| matches!(s.pattern, CommPattern::Neighbor { .. }))
        .expect("substrate must have neighbor signatures");
    tr.sigs.remove(victim);
    for (i, s) in tr.sigs.iter_mut().enumerate() {
        s.id = SigId(i as u32);
    }
    let found = codes(&tr, &cfg);
    assert!(found.contains(&"M001"), "got {found:?}");
}

/// M002 (wider): lowering a tree signature's declared arity to zero
/// caps the legal fan-in at one, but the reduction still combines many
/// contributions per destination.
#[test]
fn lowered_tree_arity_trips_m002() {
    let (mut tr, cfg) = substrate();
    let mut lowered = 0;
    for s in &mut tr.sigs {
        if let CommPattern::Tree { arity } = &mut s.pattern {
            *arity = 0;
            lowered += 1;
        }
    }
    assert!(lowered > 0, "substrate must have tree signatures");
    let found = codes(&tr, &cfg);
    assert!(found.contains(&"M002"), "got {found:?}");
    // Patterns admit the same traffic, so no M001 rides along.
    assert!(!found.contains(&"M001"), "got {found:?}");
}

/// M002 (deeper): a hand-built "collective" that is really a 32-chare
/// linear relay chains 31 dependent messages under one tree signature —
/// far past the `2*ceil(log2 32)+1 = 11` hop bound any legal combining
/// layout allows.
#[test]
fn linear_chain_collective_trips_m002() {
    let p = 32u32;
    let mut b = TraceBuilder::new(p);
    let arr = b.add_array("ranks", Kind::Application);
    let chares: Vec<_> = (0..p).map(|i| b.add_chare(arr, i, PeId(i))).collect();
    let reduce = b.add_collective_entry("reduce");
    let mut now = 0u64;
    let mut awoke = None;
    for i in 0..p as usize {
        let t = match awoke {
            None => b.begin_task(chares[i], reduce, PeId(i as u32), Time(now)),
            Some(m) => b.begin_task_from(chares[i], reduce, PeId(i as u32), Time(now), m),
        };
        if i + 1 < p as usize {
            awoke = Some(b.record_send(t, Time(now + 1), chares[i + 1], reduce));
        }
        b.end_task(t, Time(now + 2));
        now += 3;
    }
    let tr = b.build().expect("chain builds");

    let model = SkeletonModel::build(&tr.declarations());
    assert_eq!(model.shapes.len(), 1, "one tree signature expected");
    assert_eq!(model.shapes[0].depth_max, 11);

    let ls = lsr_core::extract(&tr, &Config::charm());
    let report = check(&model, &tr, &ls);
    let m002: Vec<&Finding> = report.findings.iter().filter(|f| f.code() == "M002").collect();
    assert_eq!(m002.len(), 1, "got {:?}", report.findings);
    match m002[0] {
        Finding::CollectiveShape { depth, depth_max, .. } => {
            assert_eq!(*depth, 31);
            assert_eq!(*depth_max, 11);
        }
        other => panic!("wrong finding {other:?}"),
    }
}

/// M003: zeroing every signature's registered volume collapses each
/// family's phase bounds to `[0, 0]`, below what recovery observes.
#[test]
fn zeroed_signature_volume_trips_m003() {
    let (mut tr, cfg) = substrate();
    for s in &mut tr.sigs {
        s.msgs = 0;
    }
    let found = codes(&tr, &cfg);
    assert!(found.contains(&"M003"), "got {found:?}");
    // The patterns still admit all traffic.
    assert!(!found.contains(&"M001"), "got {found:?}");
}

/// M004: a declared path between entries that never exchange a message
/// is reported as unobserved — a warning, never an error.
#[test]
fn bogus_declared_path_trips_m004() {
    let (mut tr, cfg) = substrate();
    let keys: std::collections::HashSet<_> = tr.sigs.iter().map(|s| s.key()).collect();
    let arr = tr.arrays[0].id;
    let (src_entry, dst_entry) = {
        let mut pick = None;
        'outer: for a in &tr.entries {
            for b in &tr.entries {
                if !keys.contains(&(arr, a.id, arr, b.id)) {
                    pick = Some((a.id, b.id));
                    break 'outer;
                }
            }
        }
        pick.expect("some entry pair carries no traffic")
    };
    tr.sigs.push(SigInfo {
        id: SigId(tr.sigs.len() as u32),
        src_array: arr,
        src_entry,
        dst_array: arr,
        dst_entry,
        pattern: CommPattern::Any,
        msgs: 7,
    });

    let ls = lsr_core::extract(&tr, &cfg);
    let model = SkeletonModel::build(&tr.declarations());
    let report = check(&model, &tr, &ls);
    let found: Vec<&'static str> = report.findings.iter().map(Finding::code).collect();
    assert!(found.contains(&"M004"), "got {found:?}");
    assert_eq!(report.error_count(), 0, "M004 is a warning: {found:?}");
    assert!(conforms(&tr, &ls), "warnings must not reject the oracle");
}

/// M005: swapping two SDAG serial numbers in the LULESH declarations
/// makes each chare's observed task order wrap to two different "loop
/// heads" — no consistent cycle exists.
#[test]
fn swapped_sdag_serials_trip_m005() {
    let cfg = Config::charm();
    let mut tr = lsr_apps::lulesh_charm(&lsr_apps::LuleshParams::fig16_charm());
    let mut swapped = 0;
    for e in &mut tr.entries {
        match e.sdag_serial {
            Some(2) => {
                e.sdag_serial = Some(4);
                swapped += 1;
            }
            Some(4) => {
                e.sdag_serial = Some(2);
                swapped += 1;
            }
            _ => {}
        }
    }
    assert!(swapped >= 2, "lulesh declares serials 2 and 4");
    let found = codes(&tr, &cfg);
    assert!(found.contains(&"M005"), "got {found:?}");
    // Serials are not part of signature admission, so nothing else fires.
    assert!(found.iter().all(|c| *c == "M005"), "only M005 expected, got {found:?}");
}

/// M006 (a): stripping the signature table entirely degrades the model;
/// may-communicate and phase-bound checks are suppressed rather than
/// reported vacuously.
#[test]
fn empty_signature_table_trips_m006_and_suppresses_m001() {
    let (mut tr, cfg) = substrate();
    tr.sigs.clear();
    let ls = lsr_core::extract(&tr, &cfg);
    let model = SkeletonModel::build(&tr.declarations());
    assert!(model.degraded);
    let report = check(&model, &tr, &ls);
    let found: Vec<&'static str> = report.findings.iter().map(Finding::code).collect();
    assert!(found.contains(&"M006"), "got {found:?}");
    assert!(!found.contains(&"M001"), "degraded models cannot rule edges out");
    assert!(!found.contains(&"M003"), "degraded bounds are vacuous");
    assert_eq!(report.error_count(), 0);
    assert!(conforms(&tr, &ls), "degradation alone must not reject the oracle");
}

/// M006 (b): one unclassifiable pattern is enough to degrade the model.
#[test]
fn unknown_pattern_trips_m006() {
    let (mut tr, cfg) = substrate();
    tr.sigs[0].pattern = CommPattern::Unknown;
    let found = codes(&tr, &cfg);
    assert!(found.contains(&"M006"), "got {found:?}");
    assert!(!found.contains(&"M001"), "got {found:?}");
}
