//! Contract tests: the metric tables, `BENCHMARK.json`, and determinism.

use crate::e2e::{self, Reps};
use crate::json::{self, Json};
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::workloads::{Length, Workload};

fn name_ok(s: &str) -> bool {
    let mut chars = s.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn unit_ok(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn tables_fit_the_contract() {
    let published = || END_TO_END.iter().filter(|e| e.published);
    assert!((2..=8).contains(&Workload::ALL.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=16).contains(&published().count()));
    assert!((1..=128).contains(&spec::driver_per_layer().len()));
    let mut names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    names.extend(END_TO_END.iter().map(|e| e.name));
    names.extend(PER_LAYER.iter().map(|p| p.name));
    for n in &names {
        assert!(name_ok(n), "bad name {n:?}");
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "a name is used twice");
    for (unit, name) in END_TO_END
        .iter()
        .map(|e| (e.unit, e.name))
        .chain(PER_LAYER.iter().map(|p| (p.unit, p.name)))
    {
        assert!(unit_ok(unit), "bad unit {unit:?} on {name}");
    }
    for e in &END_TO_END {
        assert!(
            e.seed_bound > 0.0 && e.seed_bound <= 0.25,
            "{} across-seeds bound {}",
            e.name,
            e.seed_bound
        );
        // What BENCHMARK.json carries must be defined everywhere.
        assert!(!e.published || e.on == spec::On::All, "{}", e.name);
    }
    for w in Workload::ALL {
        assert!(
            w.why().len() <= 200 && !w.why().contains('\n'),
            "{}",
            w.name()
        );
        assert_eq!(Workload::parse(w.name()), Some(w));
    }
    let setup = spec::end_to_end("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better.name()), ("s", "lower"));
    assert!(setup.published);
    assert!(
        published().all(|e| e.seed_bound <= setup.seed_bound),
        "setup_s has the largest bound"
    );
}

#[test]
fn every_layer_metric_names_what_it_should_move() {
    for p in &PER_LAYER {
        assert!(!p.moves.is_empty(), "{} moves nothing", p.name);
        for (metric, workload) in p.moves {
            let e = spec::end_to_end(metric)
                .unwrap_or_else(|| panic!("{}: unknown metric {metric}", p.name));
            let w = Workload::parse(workload)
                .unwrap_or_else(|| panic!("{}: unknown workload {workload}", p.name));
            assert!(
                e.on.includes(w),
                "{}: {metric} has no meaning on {workload}",
                p.name
            );
        }
    }
}

#[test]
fn benchmark_json_agrees_with_list() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
        .expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let list = crate::report::list();
    for key in ["workloads", "end_to_end", "per_layer"] {
        assert_eq!(
            doc.get(key),
            list.get(key),
            "{key} differs from `jbof-bench list`"
        );
    }
    assert_eq!(
        doc.get("paths"),
        Some(&Json::Arr(vec![Json::str("jbof_bench")]))
    );
    let secs = doc
        .get("run_seconds")
        .and_then(Json::as_f64)
        .expect("run_seconds");
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
    // The driver's budget: 4 + 22 x workloads runs within 3420 s.
    let runs = 4.0 + 22.0 * Workload::ALL.len() as f64;
    assert!(
        runs * (secs + 4.0) < 3420.0 - 240.0,
        "run_seconds leaves no room for builds"
    );
}

#[test]
fn quick_double_run_is_digest_identical() {
    for w in Workload::ALL {
        // `run` itself fails when its two repetitions' digests differ.
        let digest = |seed| {
            e2e::run(w, seed, Length::Quick, Reps::Count(2))
                .unwrap_or_else(|bad| panic!("{}: {}", w.name(), bad.join("; ")))
                .sim
                .digest
        };
        let (a, b) = (digest(42), digest(42));
        assert_eq!(a, b, "{}: same seed, different digest", w.name());
        assert_ne!(
            a,
            digest(7),
            "{}: the seed does not reach the engine",
            w.name()
        );
    }
}

#[test]
fn driver_line_has_exactly_the_contract_keys() {
    let e = e2e::run(Workload::CacheWbZipf, 3, Length::Quick, Reps::Count(2)).expect("gates green");
    let entry = crate::report::e2e_json(&e);
    let line = crate::report::driver_line(&entry, false).expect("every published metric");
    let keys: Vec<&str> = line.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let metrics = line.get("metrics").expect("metrics").as_obj();
    assert_eq!(
        metrics.iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
        END_TO_END
            .iter()
            .filter(|e| e.published)
            .map(|e| e.name)
            .collect::<Vec<_>>()
    );
    for (name, m) in metrics {
        let v = m.get("value").and_then(Json::as_f64).expect("value");
        assert!(v > 0.0 && v.is_finite(), "{name} = {v}");
    }
    assert!(line
        .get("attempted")
        .and_then(Json::as_f64)
        .is_some_and(|a| a >= 1.0));
    // A metric that has no meaning on the workload is left out of the
    // bench's own report, never written as 0 ...
    let own = entry.get("metrics").expect("metrics");
    assert!(own.get("sim_futil_min").is_none());
    assert!(own.get("failed_share").is_some());
    // ... and a published one without a value fails the line.
    let no_metrics = Json::obj(vec![
        ("attempted", Json::Num(1.0)),
        ("failed", Json::Num(0.0)),
        ("metrics", Json::Obj(Vec::new())),
    ]);
    assert!(crate::report::driver_line(&no_metrics, false).is_err());
}

/// The replays are only worth timing if they do what the run did: each
/// driver that can check itself against the wrapped run's counters must
/// pass its own check (a refused driver reports no calls).
#[test]
fn replays_reproduce_the_wrapped_runs_counters() {
    use crate::layers;
    use crate::timing::Timer;
    use crate::workloads::{plan, Plan};
    use crate::wrapped::{self, Pass};
    use gimbal_fabric::SsdId;

    let timer = Timer::calibrate();
    for w in [Workload::BurstSkew, Workload::CacheWbZipf] {
        let Plan::Fio(cfg, workers) = plan(w, 7, Length::Quick, false) else {
            unreachable!("Testbed workloads");
        };
        let spans = wrapped::run(&cfg, &workers, Pass::Spans);
        let plain = wrapped::run(&cfg, &workers, Pass::Plain);
        let logged = wrapped::run(&cfg, &workers, Pass::Log);
        for other in [&spans, &plain] {
            assert_eq!(
                (other.ios, other.events, other.stopped_at),
                (logged.ios, logged.events, logged.stopped_at),
                "{}: passes diverged",
                w.name()
            );
        }
        assert!(logged.ios > 10_000, "{}: {} commands", w.name(), logged.ios);
        let log = logged.log.as_ref().expect("log pass");
        let ssds = cfg.num_ssds as usize;
        let fio = layers::fio_next(&timer, log, &cfg, &workers);
        assert_eq!(fio.calls, log.cmds.len() as u64, "{}: fio draws", w.name());
        if let (Some(bc), Some(seen)) = (&cfg.broker, &logged.broker) {
            let active: Vec<_> = (0..cfg.num_ssds)
                .map(|s| (SsdId(s), wrapped::tenants_on(&workers, s)))
                .collect();
            let t = layers::broker_paths(&timer, log, bc, &active, seen);
            assert!(seen.denials > 0, "the broker never denied");
            // Grants plus denials: every device submission passed the gate.
            assert!(t.try_charge.calls > seen.denials, "broker replay refused");
        }
        if let Some(sc) = &cfg.steal {
            let cores = cfg.cores as usize;
            let t = layers::cores_begin_end(&timer, log, cores, ssds, sc.clone(), &logged.cores);
            assert!(logged.cores.steals > 0, "nothing was stolen");
            assert!(t.calls > 0, "cores replay refused");
        }
        if let Some(cc) = cfg.cache.as_ref().filter(|c| c.enabled()) {
            let seen = [
                logged.cache.iter().map(|c| c.hits).sum(),
                logged.cache.iter().map(|c| c.misses).sum(),
                logged.cache_acked,
            ];
            let cost = cfg.scheme.cpu_cost(cfg.xeon);
            let t = layers::cache_paths(&timer, log, cc, cost, ssds, seen);
            assert!(seen.iter().all(|&n| n > 0), "{seen:?}");
            assert!(
                t.read_hit.calls > 0,
                "cache replay refused: {:?} against {seen:?}",
                t.counters
            );
        }
    }
}
