//! Ablation sweep over the pipeline's design choices (DESIGN.md):
//! app/runtime serial-block splitting (§3.1.1/3.1.3), SDAG inference
//! (§2.1), dependency inference (§3.1.4), reordering (§3.2.1) and
//! reduction tracing (§5).

use lsr_apps::{jacobi2d, lulesh_charm, JacobiParams, LuleshParams};
use lsr_bench::{banner, secs, timed};
use lsr_core::{extract, Config, OrderingPolicy};
use lsr_trace::QualityReport;

fn row(name: &str, trace: &lsr_trace::Trace, cfg: &Config) {
    let (ls, dt) = timed(|| extract(trace, cfg));
    ls.verify(trace).expect("ablation invariants");
    println!(
        "{name:<28} | {:>6} | {:>4} | {:>6} | {:>9} | {}",
        ls.num_phases(),
        ls.app_phase_count(),
        ls.max_step() + 1,
        ls.diagnostics.reorder_fallbacks,
        secs(dt)
    );
}

fn main() {
    banner("Ablations", "pipeline design choices on LULESH (Charm++)");
    let trace = lulesh_charm(&LuleshParams::fig16_charm());
    println!(
        "{:<28} | {:>6} | {:>4} | {:>6} | {:>9} | time",
        "configuration", "phases", "app", "steps", "fallbacks"
    );
    row("full algorithm", &trace, &Config::charm());
    row("no reordering", &trace, &Config::charm().with_ordering(OrderingPolicy::PhysicalTime));
    row("no §3.1.4 inference", &trace, &Config::charm().with_inference(false));
    row("no app/runtime split", &trace, &Config::charm().with_split(false));
    row("no SDAG heuristics", &trace, &Config::charm().with_sdag(false));

    // §5 ablation: the same application traced with and without the
    // process-local reduction events.
    banner("Ablation §5", "reduction tracing on/off (Jacobi 2D quality)");
    let p = JacobiParams::fig8();
    let with = jacobi2d(&p);
    // Re-run with reductions untraced: the sim config flag lives in the
    // app, so rebuild through a custom run.
    let without = {
        use lsr_charm::{Ctx, Placement, RedOp, RedTarget, Sim, SimConfig};
        use lsr_trace::{Dur, EntryId, Time};
        use std::cell::Cell;
        use std::rc::Rc;
        let grid = lsr_apps::grid::Grid2D::new(p.chares_x, p.chares_y);
        let mut sim =
            Sim::new(SimConfig::new(p.pes).with_seed(p.seed).with_trace_reductions(false));
        #[derive(Default)]
        struct S {
            iter: u32,
            got: u32,
        }
        let arr = sim.add_array("jacobi", grid.len(), Placement::Block, |_| S::default());
        let elems = sim.elements(arr).to_vec();
        let e_next: Rc<Cell<EntryId>> = Rc::new(Cell::new(EntryId(0)));
        let en = e_next.clone();
        let halo = sim.add_entry("recvHalo", Some(1), move |ctx: &mut Ctx, s: &mut S, _d| {
            s.got += 1;
            if s.got == grid.neighbors4(ctx.my_index()).len() as u32 {
                s.got = 0;
                ctx.compute(Dur::from_micros(30));
                ctx.contribute(1, RedOp::Sum, RedTarget::Broadcast(en.get()));
            }
        });
        let el = elems.clone();
        let iters = p.iters;
        let next = sim.add_entry("nextIter", Some(2), move |ctx: &mut Ctx, s: &mut S, _d| {
            s.iter += 1;
            if s.iter > iters {
                return;
            }
            for nb in grid.neighbors4(ctx.my_index()) {
                ctx.send(el[nb as usize], halo, vec![]);
            }
        });
        e_next.set(next);
        for &c in &elems {
            sim.inject(c, next, vec![], Time::ZERO);
        }
        sim.run()
    };
    for (name, tr) in [("§5 tracing ON", &with), ("§5 tracing OFF", &without)] {
        let q = QualityReport::analyze(tr);
        let ls = extract(tr, &Config::charm());
        ls.verify(tr).expect("invariants");
        println!(
            "{name:<16}: quality {}/100, spontaneous tasks {:>3}, phases {}, inferred edges {}",
            q.score(),
            q.spontaneous_tasks,
            ls.num_phases(),
            ls.diagnostics.inferred_edges
        );
    }
    let q_on = QualityReport::analyze(&with);
    let q_off = QualityReport::analyze(&without);
    assert!(q_on.score() > q_off.score(), "§5 tracing must improve trace quality");
}
