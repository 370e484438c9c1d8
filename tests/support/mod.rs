//! Shared helpers for the integration and property tests: a
//! deterministic, tape-driven random workload generator producing valid
//! traces with adversarial shapes (unmatched messages, broadcasts,
//! runtime chares, idle gaps), and a reference happened-before relation
//! (generating edges plus a DFS transitive closure) built without
//! `HbIndex`.

use lsr_lint::HbMode;
use lsr_trace::{
    ChareId, EntryId, Kind, MsgId, PeId, TaskId, Time, Trace, TraceBuilder, TraceIndex,
};

/// Builds a trace from a byte tape. Every byte drives one decision, so
/// proptest shrinking simplifies the workload monotonically. The
/// generator maintains per-PE cursors and a pool of undelivered
/// messages; invalid decisions degrade to no-ops.
#[allow(dead_code)] // not every test binary uses every helper
pub fn trace_from_tape(pes: u32, chares: u32, tape: &[u8]) -> Trace {
    assert!(pes > 0 && chares > 0);
    let mut b = TraceBuilder::new(pes);
    let app = b.add_array("app", Kind::Application);
    let rt = b.add_array("rt", Kind::Runtime);
    let app_chares: Vec<ChareId> =
        (0..chares).map(|i| b.add_chare(app, i, PeId(i % pes))).collect();
    let rt_chares: Vec<ChareId> = (0..pes).map(|i| b.add_chare(rt, i, PeId(i))).collect();
    let entries: Vec<EntryId> = (0..4)
        .map(|i| b.add_entry(&format!("e{i}"), if i >= 2 { Some(i) } else { None }))
        .collect();

    let pe_of = |c: ChareId, trace_chares: &[ChareId], rt_list: &[ChareId]| -> PeId {
        if let Some(pos) = trace_chares.iter().position(|&x| x == c) {
            PeId(pos as u32 % pes)
        } else {
            let pos = rt_list.iter().position(|&x| x == c).expect("chare exists");
            PeId(pos as u32)
        }
    };

    let mut pe_free: Vec<u64> = vec![0; pes as usize];
    // (msg, dst chare, dst entry, send time)
    let mut pending: Vec<(MsgId, ChareId, EntryId, u64)> = Vec::new();
    let mut it = tape.iter().copied();
    let mut next = || it.next().unwrap_or(0);

    let mut steps = 0usize;
    while steps < tape.len() {
        steps += 1;
        let d = next();
        let pick_chare = |v: u8| -> ChareId {
            let all = chares + pes;
            let k = v as u32 % all;
            if k < chares {
                app_chares[k as usize]
            } else {
                rt_chares[(k - chares) as usize]
            }
        };
        match d % 3 {
            // Spontaneous task with a few sends.
            0 => {
                let chare = pick_chare(next());
                let pe = pe_of(chare, &app_chares, &rt_chares);
                let begin = pe_free[pe.index()];
                let dur = 2 + (next() % 16) as u64;
                let t = b.begin_task(
                    chare,
                    entries[(d >> 2) as usize % entries.len()],
                    pe,
                    Time(begin),
                );
                let nsends = next() % 3;
                let mut at = begin;
                for _ in 0..nsends {
                    at += 1 + (next() % 4) as u64;
                    let dst = pick_chare(next());
                    let entry = entries[next() as usize % entries.len()];
                    let m = b.record_send(t, Time(at.min(begin + dur)), dst, entry);
                    pending.push((m, dst, entry, at));
                }
                b.end_task(t, Time(begin + dur));
                pe_free[pe.index()] = begin + dur;
            }
            // Deliver a pending message as a new task.
            1 => {
                if pending.is_empty() {
                    continue;
                }
                let idx = next() as usize % pending.len();
                let (m, dst, entry, sent) = pending.swap_remove(idx);
                let pe = pe_of(dst, &app_chares, &rt_chares);
                let begin = pe_free[pe.index()].max(sent + 1 + (next() % 8) as u64);
                if begin > pe_free[pe.index()] {
                    b.add_idle(pe, Time(pe_free[pe.index()]), Time(begin));
                }
                let dur = 2 + (next() % 16) as u64;
                let t = b.begin_task_from(dst, entry, pe, Time(begin), m);
                let nsends = next() % 2;
                let mut at = begin;
                for _ in 0..nsends {
                    at += 1;
                    let dst2 = pick_chare(next());
                    let e2 = entries[next() as usize % entries.len()];
                    let m2 = b.record_send(t, Time(at.min(begin + dur)), dst2, e2);
                    pending.push((m2, dst2, e2, at));
                }
                b.end_task(t, Time(begin + dur));
                pe_free[pe.index()] = begin + dur;
            }
            // Broadcast from a spontaneous task.
            _ => {
                let chare = pick_chare(next());
                let pe = pe_of(chare, &app_chares, &rt_chares);
                let begin = pe_free[pe.index()];
                let dur = 3 + (next() % 8) as u64;
                let entry = entries[next() as usize % entries.len()];
                let t = b.begin_task(chare, entry, pe, Time(begin));
                let k = 2 + (next() % 3) as u32;
                let dsts: Vec<(ChareId, EntryId)> =
                    (0..k).map(|i| (pick_chare(next().wrapping_add(i as u8)), entry)).collect();
                let msgs = b.record_broadcast(t, Time(begin + 1), &dsts);
                for (m, (dc, de)) in msgs.into_iter().zip(dsts) {
                    pending.push((m, dc, de, begin + 1));
                }
                b.end_task(t, Time(begin + dur));
                pe_free[pe.index()] = begin + dur;
            }
        }
    }
    // Leave remaining messages unmatched: lost dependencies are legal.
    b.build().expect("tape generator must produce valid traces")
}

/// All extraction configurations exercised by the cross-cutting tests.
#[allow(dead_code)] // not every test binary uses every helper
pub fn all_configs() -> Vec<(&'static str, lsr_core::Config)> {
    use lsr_core::{Config, OrderingPolicy};
    vec![
        ("charm", Config::charm()),
        ("charm/physical", Config::charm().with_ordering(OrderingPolicy::PhysicalTime)),
        ("charm/no-infer", Config::charm().with_inference(false)),
        ("charm/no-split", Config::charm().with_split(false)),
        ("charm/no-sdag", Config::charm().with_sdag(false)),
        ("mpi", Config::mpi()),
        ("mpi/baseline", Config::mpi_baseline()),
        ("mpi/no-order", Config::mpi().with_process_order(false)),
    ]
}

/// All eleven generator presets, each with the extraction configuration
/// its CLI invocation uses (`--mpi` for the MPI apps, plus
/// `--no-process-order` for the merge tree).
#[allow(dead_code)] // not every test binary uses every helper
pub fn presets() -> Vec<(&'static str, Trace, lsr_core::Config)> {
    use lsr_apps::*;
    use lsr_core::Config;
    let charm = Config::charm();
    let mpi = Config::mpi();
    vec![
        ("jacobi-fig8", jacobi2d(&JacobiParams::fig8()), charm.clone()),
        ("jacobi-fig15", jacobi2d(&JacobiParams::fig15()), charm.clone()),
        ("lulesh-charm", lulesh_charm(&LuleshParams::fig16_charm()), charm.clone()),
        ("lulesh-mpi", lulesh_mpi(&LuleshParams::fig16_mpi()), mpi.clone()),
        ("lassen8", lassen_charm(&LassenParams::chares8()), charm.clone()),
        ("lassen64", lassen_charm(&LassenParams::chares64()), charm.clone()),
        ("lassen-mpi", lassen_mpi(&LassenParams::mpi(4, 2)), mpi.clone()),
        ("pdes", pdes_charm(&PdesParams::fig24()), charm.clone()),
        (
            "mergetree",
            mergetree_mpi(&MergeTreeParams::small()),
            mpi.clone().with_process_order(false),
        ),
        ("bt", bt_mpi(&BtParams::fig1()), mpi),
        ("divcon", divcon_charm(&DivConParams::small()), charm),
    ]
}

/// The generating edges of `mode`'s happened-before relation, as
/// successor lists, built straight from the trace and its index: chains
/// of consecutive tasks per PE (schedule), per chare (causal with chare
/// order) or per chare over SDAG-managed entries (causal with SDAG
/// order), plus one edge per matched message between distinct tasks.
#[allow(dead_code)]
pub fn hb_edges(trace: &Trace, ix: &TraceIndex, mode: HbMode) -> Vec<Vec<u32>> {
    fn chain(succs: &mut [Vec<u32>], tasks: impl IntoIterator<Item = TaskId>) {
        let mut tasks = tasks.into_iter();
        let Some(mut prev) = tasks.next() else { return };
        for t in tasks {
            succs[prev.index()].push(t.0);
            prev = t;
        }
    }
    let mut succs = vec![Vec::new(); trace.tasks.len()];
    match mode {
        HbMode::Schedule => {
            ix.tasks_by_pe.iter().for_each(|l| chain(&mut succs, l.iter().copied()))
        }
        HbMode::Causal { chare_order, sdag_order } => {
            let sdag = |t: &TaskId| trace.entry(trace.task(*t).entry).sdag_serial.is_some();
            for list in &ix.tasks_by_chare {
                if chare_order {
                    chain(&mut succs, list.iter().copied());
                }
                if sdag_order {
                    chain(&mut succs, list.iter().copied().filter(sdag));
                }
            }
        }
    }
    for m in &trace.msgs {
        let from = trace.event(m.send_event).task;
        match m.recv_task {
            Some(to) if to != from => succs[from.index()].push(to.0),
            _ => {}
        }
    }
    succs
}

/// A strict transitive closure: bit `v` of row `u` is set iff a
/// non-empty path runs from `u` to `v`.
#[allow(dead_code)]
pub struct Closure {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

#[allow(dead_code)]
impl Closure {
    /// True iff a non-empty path runs from `u` to `v`.
    pub fn reaches(&self, u: u32, v: u32) -> bool {
        self.bits[u as usize * self.words + v as usize / 64] & (1 << (v % 64)) != 0
    }

    /// True iff no node reaches itself.
    pub fn is_acyclic(&self) -> bool {
        (0..self.n as u32).all(|u| !self.reaches(u, u))
    }
}

/// Reference reachability: one DFS per source over `succs`.
#[allow(dead_code)]
pub fn dfs_closure(succs: &[Vec<u32>]) -> Closure {
    let (n, words) = (succs.len(), succs.len().div_ceil(64));
    let mut bits = vec![0u64; n * words];
    for (s, row) in bits.chunks_mut(words.max(1)).enumerate() {
        let mut stack = succs[s].clone();
        while let Some(u) = stack.pop() {
            let (w, bit) = (u as usize / 64, 1u64 << (u % 64));
            if row[w] & bit == 0 {
                row[w] |= bit;
                stack.extend_from_slice(&succs[u as usize]);
            }
        }
    }
    Closure { n, words, bits }
}
