//! The `btbsim` workload: one `btbsim --policy thermometer` process per app
//! over trace files that `tracegen` wrote during set-up.
//!
//! It is the single-trace path with no repeated work to share (each process
//! decodes, profiles and simulates its trace once), so it is where trace
//! decode, the hint lookup and intra-trace parallelism show, and where a
//! cross-figure cache should change nothing. The seed picks the inputs:
//! train on input `2S`, test on input `2S+1`.

use std::hint::black_box;
use std::path::PathBuf;
use std::process::Stdio;

use btb_model::{AccessContext, Btb};
use btb_trace::{next_use::NEVER, read_binary_batched, Trace};
use btb_workloads::{AppSpec, InputConfig};
use thermometer::{HintTable, OptProfile, PipelineConfig, PolicyKind};
use uarch_sim::cache::{InstrHierarchy, BLOCK_BYTES};
use uarch_sim::tage::Tage;
use uarch_sim::Frontend;

use crate::calib::Calibrator;
use crate::expected::Checker;
use crate::ledger::Ledger;
use crate::metrics::Metric;
use crate::procfs::{self, run_measured};
use crate::{clock, stats, Ctx, ProcOps};

/// Records per trace file.
const RECORDS: usize = 1_000_000;
const POLICY: &str = "thermometer";
const SETUP_REPEATS: usize = 3;
/// The top-level layers of the traced run's main pass, in pipeline order.
const MAIN_LAYERS: [&str; 5] = [
    "workloads.generate",
    "trace.decode",
    "core.profile",
    "core.hints",
    "uarch.frontend",
];

/// (train, test) input ids of seed `seed`.
pub fn inputs(seed: u64) -> (u32, u32) {
    let train = (seed as u32).wrapping_mul(2);
    (train, train.wrapping_add(1))
}

fn trace_path(ctx: &Ctx, app: &str, role: &str) -> PathBuf {
    ctx.tmp.join(format!("{app}.{role}.btbt"))
}

/// Writes every app's train and test trace with `tracegen`.
fn generate_files(ctx: &Ctx, checker: &mut Checker) -> Result<(), String> {
    let (train, test) = inputs(ctx.seed);
    for spec in AppSpec::all() {
        for (role, input) in [("train", train), ("test", test)] {
            let status = ctx
                .command("tracegen")
                .args(["app", &spec.name, "--input", &input.to_string()])
                .args(["--records", &RECORDS.to_string()])
                .arg("--out")
                .arg(trace_path(ctx, &spec.name, role))
                .stderr(ctx.log("tracegen").map_err(|e| e.to_string())?)
                .status()
                .map_err(|e| format!("tracegen: {e}"))?;
            checker.op(
                &format!("tracegen {} {role}", spec.name),
                status.success(),
                None,
            );
        }
    }
    Ok(())
}

/// One `btbsim` process; returns its measurement and stdout.
fn btbsim_op(
    ctx: &Ctx,
    checker: &mut Checker,
    app: &str,
) -> Result<(procfs::ProcRun, String), String> {
    let out_path = ctx.tmp.join("btbsim.out");
    let stdout = std::fs::File::create(&out_path).map_err(|e| e.to_string())?;
    let run = run_measured(
        ctx.command("btbsim")
            .arg(trace_path(ctx, app, "test"))
            .args(["--policy", POLICY, "--threads", "2", "--profile"])
            .arg(trace_path(ctx, app, "train"))
            .stdout(Stdio::from(stdout))
            .stderr(ctx.log("btbsim").map_err(|e| e.to_string())?),
    )
    .map_err(|e| format!("btbsim: {e}"))?;
    let out = std::fs::read_to_string(&out_path).unwrap_or_default();
    checker.op(
        &format!("btbsim {app}"),
        run.status.success(),
        Some((app, out.as_bytes())),
    );
    Ok((run, out))
}

/// The end-to-end run: trace generation (the set-up, repeated), then rounds
/// of one `btbsim` per app until `--seconds` is spent.
pub fn run(ctx: &Ctx, checker: &mut Checker) -> Result<Vec<(&'static Metric, f64)>, String> {
    let mut cal = Calibrator::new();
    let mut setup_s = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let ((done, secs), speed) = cal.bracket(|| clock::timed(|| generate_files(ctx, checker)));
        done?;
        setup_s.push(secs * speed);
    }
    let mut ops = ProcOps::default();
    let start = clock::now();
    for rounds in 1.. {
        for spec in AppSpec::all() {
            let (op, speed) = cal.bracket(|| btbsim_op(ctx, checker, &spec.name));
            ops.push(&op?.0, speed);
        }
        if clock::since(start) * (rounds + 1) as f64 / rounds as f64 > ctx.seconds {
            break;
        }
    }
    Ok(ops.metrics(stats::median(&setup_s)))
}

/// The value of the `name` line of a `btbsim` report.
fn report_field<'a>(report: &'a str, name: &str) -> Option<&'a str> {
    report
        .lines()
        .find(|l| l.split_whitespace().next() == Some(name))?
        .split_whitespace()
        .last()
}

fn load(path: &PathBuf) -> Result<Trace, String> {
    let mut file = std::fs::File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    read_binary_batched(&mut file).map_err(|e| format!("{}: {e}", path.display()))
}

/// The traced run: set-up and one round of `btbsim` for the reference
/// reports, then each app's pipeline in-process on one thread. The main
/// pass (generate, decode, profile, hints, frontend) is the ledger's
/// end-to-end time; the frontend's parts are then replayed in isolation on
/// the same test trace and hints, outside it.
pub fn trace(ctx: &Ctx, checker: &mut Checker) -> Result<Ledger, String> {
    generate_files(ctx, checker)?;
    let config = PipelineConfig::default();
    let policy = || PolicyKind::by_name(POLICY).expect("a registered policy");
    let (train_input, test_input) = inputs(ctx.seed);
    let mut ledger = Ledger::default();
    let (mut e2e, mut cpu) = (0.0, 0.0);
    let (mut records, mut blocks) = (0u64, 0u64);
    // Where each app's wall time goes, in ms per main-pass layer.
    let mut per_app = format!("{:16}", "app (ms)");
    for layer in MAIN_LAYERS {
        per_app.push_str(&format!(" {layer:>18}"));
    }
    per_app.push_str(&format!(" {:>9}\n", "total"));

    for spec in AppSpec::all() {
        let app = spec.name.as_str();
        let (_, reference) = btbsim_op(ctx, checker, app)?;
        let busy_before: Vec<f64> = MAIN_LAYERS.iter().map(|l| ledger.busy(l)).collect();

        // Main pass: what one btbsim process does, plus the set-up's
        // generation.
        let cpu0 = procfs::stat_of("self").map_err(|e| e.to_string())?.own_s();
        let start = clock::now();
        let generated_train = ledger.top("workloads.generate", || {
            spec.generate(InputConfig::input(train_input), RECORDS)
        });
        let generated_test = ledger.top("workloads.generate", || {
            spec.generate(InputConfig::input(test_input), RECORDS)
        });
        let train = ledger.top("trace.decode", || load(&trace_path(ctx, app, "train")))?;
        let test = ledger.top("trace.decode", || load(&trace_path(ctx, app, "test")))?;
        let same = generated_train == train && generated_test == test;
        drop((generated_train, generated_test));
        let profile = ledger.top("core.profile", || {
            OptProfile::measure(&train, config.frontend.btb)
        });
        let hints = ledger.top("core.hints", || {
            HintTable::from_profile(&profile, &config.temperature)
        });
        let report = ledger.top("uarch.frontend", || {
            let mut frontend = Frontend::new(config.frontend, policy());
            frontend.set_hints(hints.to_map());
            frontend.run(&test, None)
        });
        let secs = clock::since(start);
        e2e += secs;
        cpu += procfs::stat_of("self").map_err(|e| e.to_string())?.own_s() - cpu0;
        ledger.item(secs);
        per_app.push_str(&format!("{app:16}"));
        for (layer, before) in MAIN_LAYERS.iter().zip(&busy_before) {
            per_app.push_str(&format!(" {:>18.1}", (ledger.busy(layer) - before) * 1e3));
        }
        per_app.push_str(&format!(" {:>9.1}\n", secs * 1e3));
        checker.op(
            &format!("{app}: tracegen files == in-process generation"),
            same,
            None,
        );
        let matches = report_field(&reference, "instructions")
            == Some(&report.instructions.to_string())
            && report_field(&reference, "cycles") == Some(&format!("{:.0}", report.cycles));
        checker.op(
            &format!("{app}: in-process report == btbsim"),
            matches,
            None,
        );

        // Component pass: the frontend's parts in isolation.
        let map = hints.to_map();
        ledger.nested("uarch.tage", || {
            let mut tage = Tage::new();
            for r in test.records() {
                if r.kind.is_conditional() {
                    let prediction = tage.predict(r.pc);
                    tage.update(r.pc, r.taken, prediction);
                } else {
                    tage.note_taken_transfer(r.pc);
                }
            }
            black_box(&tage);
        });
        blocks += ledger.nested("uarch.icache", || {
            let mut icache = InstrHierarchy::table1();
            let mut fetched = 0u64;
            for r in test.records() {
                let first = r.pc.saturating_sub(u64::from(r.inst_gap) * 4) / BLOCK_BYTES;
                for block in first..=r.pc / BLOCK_BYTES {
                    black_box(icache.fetch_block(block));
                    fetched += 1;
                }
            }
            fetched
        });
        records += test.len() as u64;
        let taken: Vec<_> = test.taken().collect();
        let hint_sum = ledger.nested("uarch.hint_lookup", || {
            taken
                .iter()
                .map(|r| u64::from(map.get(&r.pc).copied().unwrap_or(0)))
                .sum::<u64>()
        });
        black_box(hint_sum);
        let taken_hints: Vec<u8> = taken.iter().map(|r| hints.hint(r.pc)).collect();
        ledger.nested("btb.access", || {
            let mut btb = Btb::new(config.frontend.btb, policy());
            for (i, (r, &hint)) in taken.iter().zip(&taken_hints).enumerate() {
                black_box(btb.access(&AccessContext {
                    pc: r.pc,
                    target: r.target,
                    kind: r.kind,
                    hint,
                    next_use: NEVER,
                    access_index: i as u64,
                }));
            }
        });
    }

    let parts: f64 = [
        "uarch.tage",
        "uarch.icache",
        "uarch.hint_lookup",
        "btb.access",
    ]
    .iter()
    .map(|l| ledger.busy(l))
    .sum();
    ledger.add(
        "uarch.frontend_other",
        ledger.busy("uarch.frontend") - parts,
        false,
    );
    ledger.set(
        "uarch.icache.blocks_per_rec",
        blocks as f64 / records.max(1) as f64,
    );
    eprint!("{per_app}");
    ledger.finish(e2e, cpu, 1);
    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_picks_adjacent_train_and_test_inputs() {
        assert_eq!(inputs(0), (0, 1));
        assert_eq!(inputs(1), (2, 3));
        assert_eq!(inputs(7), (14, 15));
        let (train, test) = inputs(u64::MAX);
        assert_eq!(test, train.wrapping_add(1), "wraps, never panics");
    }

    #[test]
    fn report_fields_are_read_by_name() {
        let report =
            "workload            kafka#1\ninstructions        123\ncycles              456\n\
                      stall cycles: btb=1 direction=2 target=3 icache=4\n";
        assert_eq!(report_field(report, "instructions"), Some("123"));
        assert_eq!(report_field(report, "cycles"), Some("456"));
        assert_eq!(report_field(report, "IPC"), None);
    }
}
