//! Property tests of the trace interchange format: any valid trace must
//! round-trip exactly. Case `i` of a property draws its input from
//! `SimRng::seed_from(K).fork(i)`.

use vrecon_repro::prelude::*;
use vrecon_repro::workload::{read_trace, write_trace};

fn job(rng: &mut SimRng, id: u64) -> JobSpec {
    let submit = rng.index(4_000_000_000) as u64;
    let work = 1 + rng.index(3_999_999_999) as u64;
    let class = *rng.choose(&[
        JobClass::CpuIntensive,
        JobClass::MemoryIntensive,
        JobClass::CpuMemoryIntensive,
        JobClass::IoActive,
    ]);
    let io = rng.uniform_range(0.0, 50.0);
    let mid_phases: Vec<(u64, u64)> = (0..rng.index(4))
        .map(|_| {
            let boundary = 1 + rng.index(3_599_999_999) as u64;
            (boundary, 1 + rng.index(999_999_999) as u64)
        })
        .collect();
    let final_ws = 1 + rng.index(999_999_999) as u64;
    // Build strictly increasing boundaries from arbitrary values.
    let mut boundaries: Vec<u64> = mid_phases.iter().map(|(b, _)| *b).collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    let mut phases: Vec<(SimSpan, Bytes)> = boundaries
        .iter()
        .zip(mid_phases.iter())
        .map(|(b, (_, ws))| (SimSpan::from_micros(*b), Bytes::new(*ws)))
        .collect();
    phases.push((SimSpan::MAX, Bytes::new(final_ws)));
    JobSpec {
        id: JobId(id),
        name: format!("prog-{}", id % 7),
        class,
        submit: SimTime::from_micros(submit),
        cpu_work: SimSpan::from_micros(work),
        memory: MemoryProfile::from_phases(phases).expect("strictly increasing"),
        io_rate: io,
        malleable: None,
    }
}

fn trace(rng: &mut SimRng) -> Trace {
    let mut jobs: Vec<JobSpec> = (0..rng.index(30) as u64).map(|id| job(rng, id)).collect();
    jobs.sort_by_key(|j| j.submit);
    for (i, j) in jobs.iter_mut().enumerate() {
        j.id = JobId(i as u64);
    }
    Trace {
        name: "prop-trace".to_owned(),
        jobs,
    }
}

#[test]
fn traces_round_trip_exactly() {
    for case in 0..128 {
        let trace = trace(&mut SimRng::seed_from(1).fork(case));
        assert!(trace.validate().is_ok());
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).expect("serialize");
        let parsed = read_trace(buf.as_slice()).expect("parse");
        assert_eq!(parsed.name, trace.name.clone());
        assert_eq!(parsed.jobs.len(), trace.jobs.len());
        for (a, b) in trace.jobs.iter().zip(parsed.jobs.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(&a.name, &b.name);
            assert_eq!(a.class, b.class);
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.cpu_work, b.cpu_work);
            assert_eq!(&a.memory, &b.memory);
            assert!((a.io_rate - b.io_rate).abs() < 1e-9);
        }
    }
}

/// Parsing never panics on arbitrary input — it returns an error.
#[test]
fn parser_is_total() {
    for case in 0..128 {
        let mut rng = SimRng::seed_from(2).fork(case);
        let garbage: Vec<u8> = (0..rng.index(512)).map(|_| rng.next_u64() as u8).collect();
        let _ = read_trace(garbage.as_slice());
    }
}
