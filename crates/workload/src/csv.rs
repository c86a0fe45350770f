//! Plain-text trace serialization.
//!
//! Traces round-trip through a line-oriented CSV-like format so they can be
//! archived, diffed, and shared without a serde format crate (none is
//! available offline). One header line, one comment line with the trace
//! name, then one line per job:
//!
//! ```text
//! #vrecon-trace v1
//! #name=SPEC-Trace-3
//! id,name,class,submit_us,cpu_work_us,io_rate,phases
//! 0,mcf,mem,15000000,1820000000,0.2,30000000:52428800;max:199229440
//! ```
//!
//! `phases` is a `;`-separated list of `until_us:working_set_bytes`, with
//! `max` denoting an unbounded final phase.

use std::fmt;
use std::io::{self, BufRead, Write};

use vr_cluster::job::{JobClass, JobId, JobSpec, MalleableSpec, MemoryProfile};
use vr_cluster::units::Bytes;
use vr_simcore::time::{SimSpan, SimTime};

use crate::trace::Trace;

const MAGIC: &str = "#vrecon-trace v1";

/// Error reading a serialized trace.
#[derive(Debug)]
pub enum ReadTraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The input is not a v1 trace file.
    BadMagic,
    /// A malformed line, with its (1-based) line number and a description.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for ReadTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadTraceError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            ReadTraceError::BadMagic => f.write_str("input is not a vrecon-trace v1 file"),
            ReadTraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl std::error::Error for ReadTraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadTraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ReadTraceError {
    fn from(e: io::Error) -> Self {
        ReadTraceError::Io(e)
    }
}

fn class_tag(class: JobClass) -> &'static str {
    match class {
        JobClass::CpuIntensive => "cpu",
        JobClass::MemoryIntensive => "mem",
        JobClass::CpuMemoryIntensive => "cpumem",
        JobClass::IoActive => "io",
    }
}

fn parse_class(tag: &str) -> Option<JobClass> {
    match tag {
        "cpu" => Some(JobClass::CpuIntensive),
        "mem" => Some(JobClass::MemoryIntensive),
        "cpumem" => Some(JobClass::CpuMemoryIntensive),
        "io" => Some(JobClass::IoActive),
        _ => None,
    }
}

/// Writes `trace` in the v1 text format.
///
/// A `&mut` writer can be passed (the `Write` impl for `&mut W` applies).
///
/// # Errors
///
/// Returns an error on I/O failure, or [`io::ErrorKind::InvalidInput`] if a
/// job name contains a comma or newline (which the format cannot represent).
pub fn write_trace<W: Write>(trace: &Trace, mut w: W) -> io::Result<()> {
    writeln!(w, "{MAGIC}")?;
    writeln!(w, "#name={}", trace.name)?;
    writeln!(w, "id,name,class,submit_us,cpu_work_us,io_rate,phases")?;
    for job in &trace.jobs {
        if job.name.contains(',') || job.name.contains('\n') {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("job name {:?} cannot be serialized", job.name),
            ));
        }
        let phases: Vec<String> = job
            .memory
            .phases()
            .iter()
            .map(|p| {
                let until = if p.until_progress == SimSpan::MAX {
                    "max".to_owned()
                } else {
                    p.until_progress.as_micros().to_string()
                };
                format!("{until}:{}", p.working_set.as_u64())
            })
            .collect();
        write!(
            w,
            "{},{},{},{},{},{},{}",
            job.id.0,
            job.name,
            class_tag(job.class),
            job.submit.as_micros(),
            job.cpu_work.as_micros(),
            job.io_rate,
            phases.join(";")
        )?;
        // Malleable jobs carry an optional eighth column `min:max`; rigid
        // jobs keep the classic seven so pre-existing traces round-trip
        // byte for byte.
        if let Some(m) = job.malleable {
            write!(w, ",{}:{}", m.min_width, m.max_width)?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads a trace previously written with [`write_trace`].
///
/// A `&mut` reader can be passed (the `BufRead` impl for `&mut R` applies).
///
/// # Errors
///
/// Returns [`ReadTraceError`] on I/O failure or malformed input.
pub fn read_trace<R: BufRead>(r: R) -> Result<Trace, ReadTraceError> {
    let mut lines = r.lines().enumerate();
    let bad = |line: usize, message: &str| ReadTraceError::Parse {
        line: line + 1,
        message: message.to_owned(),
    };
    let (n, magic) = lines.next().ok_or(ReadTraceError::BadMagic)?;
    if magic?.trim() != MAGIC {
        return Err(bad(n, "missing magic header"));
    }
    let (n, name_line) = lines.next().ok_or_else(|| bad(1, "missing name line"))?;
    let name_line = name_line?;
    let name = name_line
        .strip_prefix("#name=")
        .ok_or_else(|| bad(n, "expected #name= line"))?
        .to_owned();
    let (_, _header) = lines
        .next()
        .ok_or_else(|| bad(2, "missing column header"))?;
    let mut jobs = Vec::new();
    for (n, line) in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != 7 && fields.len() != 8 {
            return Err(bad(n, "expected 7 or 8 comma-separated fields"));
        }
        let id: u64 = fields[0].parse().map_err(|_| bad(n, "bad id"))?;
        let class = parse_class(fields[2]).ok_or_else(|| bad(n, "unknown class"))?;
        let submit: u64 = fields[3].parse().map_err(|_| bad(n, "bad submit time"))?;
        let cpu_work: u64 = fields[4].parse().map_err(|_| bad(n, "bad cpu work"))?;
        let io_rate: f64 = fields[5].parse().map_err(|_| bad(n, "bad io rate"))?;
        let mut phases = Vec::new();
        for part in fields[6].split(';') {
            let (until, ws) = part
                .split_once(':')
                .ok_or_else(|| bad(n, "bad phase (expected until:bytes)"))?;
            let until = if until == "max" {
                SimSpan::MAX
            } else {
                SimSpan::from_micros(until.parse().map_err(|_| bad(n, "bad phase boundary"))?)
            };
            let ws: u64 = ws.parse().map_err(|_| bad(n, "bad working set"))?;
            phases.push((until, Bytes::new(ws)));
        }
        let memory = MemoryProfile::from_phases(phases)
            .map_err(|e| bad(n, &format!("invalid memory profile: {e}")))?;
        let malleable = match fields.get(7) {
            None => None,
            Some(field) => {
                let (min, max) = field
                    .split_once(':')
                    .ok_or_else(|| bad(n, "bad malleable spec (expected min:max)"))?;
                let spec = MalleableSpec {
                    min_width: min.parse().map_err(|_| bad(n, "bad malleable min width"))?,
                    max_width: max.parse().map_err(|_| bad(n, "bad malleable max width"))?,
                };
                spec.validate()
                    .map_err(|e| bad(n, &format!("invalid malleable spec: {e}")))?;
                Some(spec)
            }
        };
        jobs.push(JobSpec {
            id: JobId(id),
            name: fields[1].to_owned(),
            class,
            submit: SimTime::from_micros(submit),
            cpu_work: SimSpan::from_micros(cpu_work),
            memory,
            io_rate,
            malleable,
        });
    }
    Ok(Trace { name, jobs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{spec_trace, TraceLevel};
    use vr_simcore::rng::SimRng;

    #[test]
    fn round_trip_preserves_trace() {
        let trace = spec_trace(TraceLevel::Light, &mut SimRng::seed_from(5));
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let parsed = read_trace(buf.as_slice()).unwrap();
        assert_eq!(parsed.name, trace.name);
        assert_eq!(parsed.len(), trace.len());
        for (a, b) in trace.jobs.iter().zip(parsed.jobs.iter()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            assert_eq!(a.class, b.class);
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.cpu_work, b.cpu_work);
            assert_eq!(a.memory, b.memory);
            assert!((a.io_rate - b.io_rate).abs() < 1e-12);
            assert_eq!(a.malleable, b.malleable);
        }
    }

    #[test]
    fn malleable_column_round_trips() {
        let mut trace = spec_trace(TraceLevel::Light, &mut SimRng::seed_from(99));
        trace.jobs[1].malleable = Some(MalleableSpec {
            min_width: 1,
            max_width: 3,
        });
        let mut buf = Vec::new();
        write_trace(&trace, &mut buf).unwrap();
        let back = read_trace(buf.as_slice()).unwrap();
        assert_eq!(back.jobs[0].malleable, None);
        assert_eq!(
            back.jobs[1].malleable,
            Some(MalleableSpec {
                min_width: 1,
                max_width: 3,
            })
        );
    }

    #[test]
    fn rejects_bad_malleable_column() {
        let base =
            format!("{MAGIC}\n#name=x\nid,name,class,submit_us,cpu_work_us,io_rate,phases\n");
        for bad in ["2", "0:2", "3:1", "a:b"] {
            let line = format!("{base}0,j,cpu,0,1000,0,max:100,{bad}\n");
            assert!(
                read_trace(line.as_bytes()).is_err(),
                "malleable column {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            read_trace("not a trace\n".as_bytes()),
            Err(ReadTraceError::Parse { .. })
        ));
        assert!(matches!(
            read_trace("".as_bytes()),
            Err(ReadTraceError::BadMagic)
        ));
    }

    #[test]
    fn rejects_malformed_job_line() {
        let input = format!(
            "{MAGIC}\n#name=x\nid,name,class,submit_us,cpu_work_us,io_rate,phases\n1,2,3\n"
        );
        let err = read_trace(input.as_bytes()).unwrap_err();
        match err {
            ReadTraceError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn rejects_bad_class_and_bad_phase() {
        let base =
            format!("{MAGIC}\n#name=x\nid,name,class,submit_us,cpu_work_us,io_rate,phases\n");
        let bad_class = format!("{base}0,j,warp,0,1000,0,max:100\n");
        assert!(read_trace(bad_class.as_bytes()).is_err());
        let bad_phase = format!("{base}0,j,cpu,0,1000,0,nonsense\n");
        assert!(read_trace(bad_phase.as_bytes()).is_err());
    }

    #[test]
    fn refuses_names_with_commas() {
        let mut trace = spec_trace(TraceLevel::Light, &mut SimRng::seed_from(5));
        trace.jobs[0].name = "a,b".to_owned();
        let err = write_trace(&trace, Vec::new()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn error_display_is_informative() {
        let err = ReadTraceError::Parse {
            line: 7,
            message: "bad id".to_owned(),
        };
        assert_eq!(err.to_string(), "trace parse error at line 7: bad id");
        assert_eq!(
            ReadTraceError::BadMagic.to_string(),
            "input is not a vrecon-trace v1 file"
        );
    }
}
