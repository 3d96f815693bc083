//! The wire protocol: line-delimited JSON over TCP, std-only.
//!
//! One request per line from the client; one or more response lines back.
//! Every message is a single compact JSON object — requests carry an `op`
//! field, responses a `type` field — so the protocol is scriptable with
//! nothing more than a socket and a JSON parser (`campaign client` is
//! exactly that).
//!
//! ```text
//! → {"op":"submit","client":"ci","format":"toml","spec":"name = ..."}
//! ← {"type":"accepted","campaign":"<hash16>","root":"...","jobs":18,...}
//! ← {"type":"record","line":"{\"kind\":\"run\",...}"}     (× records)
//! ← {"type":"done","campaign":"...","report":"...",...}
//! ```
//!
//! Streamed [`RunRecord`](rats_experiments::RunRecord) lines ride inside
//! `record` messages as *strings* — one JSON string-escape round trip,
//! byte-preserving — so the stream a client reassembles is bit-identical
//! to the shard file the server committed.

use std::io::{BufRead, Read, Write};

use serde::{Deserialize, Error, Serialize, Value};

/// The default serve/client address when `--addr` is not given.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7463";

/// How an inline spec payload is encoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpecFormat {
    /// `ExperimentSpec::from_toml`.
    Toml,
    /// `ExperimentSpec::from_json`.
    Json,
}

impl SpecFormat {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SpecFormat::Toml => "toml",
            SpecFormat::Json => "json",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(text: &str) -> Option<Self> {
        match text {
            "toml" => Some(SpecFormat::Toml),
            "json" => Some(SpecFormat::Json),
            _ => None,
        }
    }
}

/// A client request, one JSON line on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a campaign: the spec rides inline; results stream back on
    /// this connection as they land.
    Submit {
        /// Self-reported client name (journaled with the submission).
        client: String,
        /// Encoding of `spec`.
        format: SpecFormat,
        /// The inline `ExperimentSpec` document.
        spec: String,
    },
    /// Server-wide status, or one campaign's queue status when `campaign`
    /// names a spec hash.
    Status {
        /// Spec hash of the campaign to inspect (`None` = server-wide).
        campaign: Option<String>,
        /// Stale-lease threshold for the per-campaign scan.
        stale_ms: u64,
    },
    /// Re-stream a finished campaign's records from disk.
    Results {
        /// Spec hash of the campaign.
        campaign: String,
    },
    /// Cooperatively cancel a running campaign (its job returns to todo;
    /// committed records survive and a resubmission resumes past them).
    Cancel {
        /// Spec hash of the campaign.
        campaign: String,
    },
    /// Fetch the server's metrics in Prometheus text exposition format
    /// (the same document `GET /metrics` serves on `--metrics-addr`).
    Metrics,
    /// Stop accepting connections and shut the server down.
    Shutdown,
}

impl Serialize for Request {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        match self {
            Request::Submit {
                client,
                format,
                spec,
            } => {
                t.insert("op", "submit")
                    .insert("client", client)
                    .insert("format", format.as_str())
                    .insert("spec", spec);
            }
            Request::Status { campaign, stale_ms } => {
                t.insert("op", "status")
                    .insert("campaign", campaign)
                    .insert("stale_ms", stale_ms);
            }
            Request::Results { campaign } => {
                t.insert("op", "results").insert("campaign", campaign);
            }
            Request::Cancel { campaign } => {
                t.insert("op", "cancel").insert("campaign", campaign);
            }
            Request::Metrics => {
                t.insert("op", "metrics");
            }
            Request::Shutdown => {
                t.insert("op", "shutdown");
            }
        }
        t
    }
}

impl Deserialize for Request {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let op: String = v.field("op")?;
        Ok(match op.as_str() {
            "submit" => {
                let format: String = v.field_or("format", "toml".to_string())?;
                Request::Submit {
                    client: v.field_or("client", "anonymous".to_string())?,
                    format: SpecFormat::parse(&format).ok_or_else(|| {
                        Error::new(format!("format must be `toml` or `json`, got `{format}`"))
                    })?,
                    spec: v.field("spec")?,
                }
            }
            "status" => Request::Status {
                campaign: v.field_or("campaign", None)?,
                stale_ms: v.field_or("stale_ms", 30_000)?,
            },
            "results" => Request::Results {
                campaign: v.field("campaign")?,
            },
            "cancel" => Request::Cancel {
                campaign: v.field("campaign")?,
            },
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            other => return Err(Error::new(format!("unknown op `{other}`"))),
        })
    }
}

/// A server response, one JSON line on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The submission was validated and its campaign root materialized;
    /// record lines follow.
    Accepted {
        /// Spec hash — the campaign's identity for status/cancel/results.
        campaign: String,
        /// The campaign root directory on the server's filesystem.
        root: String,
        /// Grid jobs the campaign covers.
        jobs: u64,
        /// Whether the scenario population was served from warm state.
        warm_population: bool,
    },
    /// One streamed [`RunRecord`](rats_experiments::RunRecord) JSONL line.
    Record {
        /// The record's exact shard-file bytes.
        line: String,
    },
    /// The submission finished: executed (or resumed), streamed, merged.
    Done {
        /// Spec hash of the campaign.
        campaign: String,
        /// Grid jobs executed by this submission.
        executed: u64,
        /// Grid jobs resumed from disk (committed by an earlier
        /// submission or a cancelled run).
        resumed: u64,
        /// Record lines streamed to this client (live + backfill).
        streamed: u64,
        /// `"warm"` or `"cold"` — where the population came from.
        population: String,
        /// The merged report, byte-identical to batch `spec.run()`.
        report: String,
    },
    /// Status payload (server-wide table or one campaign's status JSON).
    Status {
        /// The status document.
        body: Value,
    },
    /// A cancel request was delivered to the named campaign.
    Cancelled {
        /// Spec hash of the campaign.
        campaign: String,
    },
    /// The submission stopped early on a cancel: committed records stay,
    /// the job is back in todo, and a resubmission resumes past them.
    Aborted {
        /// Spec hash of the campaign.
        campaign: String,
        /// Grid jobs committed (and streamed) before the stop.
        executed: u64,
    },
    /// The metrics document, Prometheus text exposition format 0.0.4.
    Metrics {
        /// The rendered exposition text.
        text: String,
    },
    /// Shutdown acknowledged; the server exits once in-flight work ends.
    Bye,
    /// The request failed; the connection stays usable.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Serialize for Response {
    fn serialize(&self) -> Value {
        let mut t = Value::table();
        match self {
            Response::Accepted {
                campaign,
                root,
                jobs,
                warm_population,
            } => {
                t.insert("type", "accepted")
                    .insert("campaign", campaign)
                    .insert("root", root)
                    .insert("jobs", jobs)
                    .insert("warm_population", warm_population);
            }
            Response::Record { line } => {
                t.insert("type", "record").insert("line", line);
            }
            Response::Done {
                campaign,
                executed,
                resumed,
                streamed,
                population,
                report,
            } => {
                t.insert("type", "done")
                    .insert("campaign", campaign)
                    .insert("executed", executed)
                    .insert("resumed", resumed)
                    .insert("streamed", streamed)
                    .insert("population", population)
                    .insert("report", report);
            }
            Response::Status { body } => {
                t.insert("type", "status").insert("body", body);
            }
            Response::Cancelled { campaign } => {
                t.insert("type", "cancelled").insert("campaign", campaign);
            }
            Response::Aborted { campaign, executed } => {
                t.insert("type", "aborted")
                    .insert("campaign", campaign)
                    .insert("executed", executed);
            }
            Response::Metrics { text } => {
                t.insert("type", "metrics").insert("text", text);
            }
            Response::Bye => {
                t.insert("type", "bye");
            }
            Response::Error { message } => {
                t.insert("type", "error").insert("message", message);
            }
        }
        t
    }
}

impl Deserialize for Response {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        let kind: String = v.field("type")?;
        Ok(match kind.as_str() {
            "accepted" => Response::Accepted {
                campaign: v.field("campaign")?,
                root: v.field("root")?,
                jobs: v.field("jobs")?,
                warm_population: v.field("warm_population")?,
            },
            "record" => Response::Record {
                line: v.field("line")?,
            },
            "done" => Response::Done {
                campaign: v.field("campaign")?,
                executed: v.field("executed")?,
                resumed: v.field("resumed")?,
                streamed: v.field("streamed")?,
                population: v.field("population")?,
                report: v.field("report")?,
            },
            "status" => Response::Status {
                body: v.field("body")?,
            },
            "cancelled" => Response::Cancelled {
                campaign: v.field("campaign")?,
            },
            "aborted" => Response::Aborted {
                campaign: v.field("campaign")?,
                executed: v.field("executed")?,
            },
            "metrics" => Response::Metrics {
                text: v.field("text")?,
            },
            "bye" => Response::Bye,
            "error" => Response::Error {
                message: v.field("message")?,
            },
            other => return Err(Error::new(format!("unknown response type `{other}`"))),
        })
    }
}

/// Writes one message as a JSON line and flushes (streaming latency beats
/// buffering here — every record should reach the client as it lands).
pub fn write_line<T: Serialize>(w: &mut impl Write, message: &T) -> std::io::Result<()> {
    let text = serde_json::to_string(message)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    w.write_all(text.as_bytes())?;
    w.write_all(b"\n")?;
    w.flush()
}

/// The longest line [`read_line`] accepts, newline included: far above
/// any real spec or report, and all one peer can make a connection buffer.
pub const MAX_LINE_BYTES: usize = 64 << 20;

/// The payload of [`read_line`]'s error for a line longer than
/// [`MAX_LINE_BYTES`]. The reader stopped mid-line, so the stream's line
/// framing is lost.
#[derive(Debug)]
pub(crate) struct LineTooLong {
    cap: usize,
}

impl std::fmt::Display for LineTooLong {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line exceeds {} bytes", self.cap)
    }
}

impl std::error::Error for LineTooLong {}

/// Reads one JSON line into a message, skipping blank lines. `Ok(None)` on
/// clean EOF; EOF after blank lines is an `UnexpectedEof` error; a parse
/// failure, or a line longer than [`MAX_LINE_BYTES`], is an `InvalidData`
/// error (the rest of an over-long line is left unread).
pub fn read_line<T: Deserialize>(r: &mut impl BufRead) -> std::io::Result<Option<T>> {
    read_line_capped(r, MAX_LINE_BYTES)
}

fn read_line_capped<T: Deserialize>(
    r: &mut impl BufRead,
    cap: usize,
) -> std::io::Result<Option<T>> {
    let invalid = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidData, message);
    let mut line = String::new();
    let mut skipped_blank = false;
    loop {
        line.clear();
        if Read::take(&mut *r, cap as u64 + 1).read_line(&mut line)? == 0 {
            if skipped_blank {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "blank line then EOF",
                ));
            }
            return Ok(None);
        }
        if line.len() > cap {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                LineTooLong { cap },
            ));
        }
        if !line.trim().is_empty() {
            break;
        }
        skipped_blank = true;
    }
    serde_json::from_str(line.trim())
        .map(Some)
        .map_err(|e| invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip_request(req: Request) {
        let line = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&line).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Submit {
            client: "ci".into(),
            format: SpecFormat::Toml,
            spec: "name = \"x\"\n".into(),
        });
        round_trip_request(Request::Status {
            campaign: Some("abc".into()),
            stale_ms: 5_000,
        });
        round_trip_request(Request::Status {
            campaign: None,
            stale_ms: 30_000,
        });
        round_trip_request(Request::Results {
            campaign: "abc".into(),
        });
        round_trip_request(Request::Cancel {
            campaign: "abc".into(),
        });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Shutdown);
    }

    #[test]
    fn responses_round_trip() {
        for resp in [
            Response::Accepted {
                campaign: "h".into(),
                root: "/tmp/x".into(),
                jobs: 18,
                warm_population: true,
            },
            Response::Record {
                line: "{\"kind\":\"run\",\"makespan\":1.5}".into(),
            },
            Response::Done {
                campaign: "h".into(),
                executed: 18,
                resumed: 0,
                streamed: 18,
                population: "cold".into(),
                report: "report text\n".into(),
            },
            Response::Cancelled {
                campaign: "h".into(),
            },
            Response::Aborted {
                campaign: "h".into(),
                executed: 3,
            },
            Response::Metrics {
                text: "# HELP x y\n# TYPE x counter\nx 1\n".into(),
            },
            Response::Bye,
            Response::Error {
                message: "no".into(),
            },
        ] {
            let line = serde_json::to_string(&resp).unwrap();
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn record_lines_survive_the_string_round_trip_byte_exactly() {
        let line = "{\"kind\":\"run\",\"job\":3,\"makespan\":0.10000000000000001}";
        let wire = serde_json::to_string(&Response::Record { line: line.into() }).unwrap();
        match serde_json::from_str::<Response>(&wire).unwrap() {
            Response::Record { line: back } => assert_eq!(back, line),
            other => panic!("expected a record, got {other:?}"),
        }
    }

    #[test]
    fn request_defaults_apply() {
        let req: Request =
            serde_json::from_str("{\"op\":\"submit\",\"spec\":\"s\"}").expect("defaults fill in");
        assert_eq!(
            req,
            Request::Submit {
                client: "anonymous".into(),
                format: SpecFormat::Toml,
                spec: "s".into(),
            }
        );
        let req: Request = serde_json::from_str("{\"op\":\"status\"}").unwrap();
        assert_eq!(
            req,
            Request::Status {
                campaign: None,
                stale_ms: 30_000,
            }
        );
        assert!(serde_json::from_str::<Request>("{\"op\":\"frobnicate\"}").is_err());
    }

    #[test]
    fn write_read_line_round_trip() {
        let mut buf = Vec::new();
        write_line(&mut buf, &Request::Shutdown).unwrap();
        write_line(
            &mut buf,
            &Request::Results {
                campaign: "abc".into(),
            },
        )
        .unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(
            read_line::<Request>(&mut r).unwrap(),
            Some(Request::Shutdown)
        );
        assert_eq!(
            read_line::<Request>(&mut r).unwrap(),
            Some(Request::Results {
                campaign: "abc".into()
            })
        );
        assert_eq!(read_line::<Request>(&mut r).unwrap(), None);
    }

    /// Runs `f` on a thread with the 2 MiB stack the server gives each
    /// connection, so unbounded recursion aborts the test instead of
    /// passing on a larger main-thread stack.
    fn on_connection_stack<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static) -> R {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(f)
            .unwrap()
            .join()
            .unwrap()
    }

    #[test]
    fn blank_lines_are_skipped_without_recursion() {
        let mut buf = b"\n  \n".to_vec();
        write_line(&mut buf, &Request::Shutdown).unwrap();
        let mut r = std::io::BufReader::new(&buf[..]);
        assert_eq!(
            read_line::<Request>(&mut r).unwrap(),
            Some(Request::Shutdown)
        );
        let kind = on_connection_stack(|| {
            let blanks = vec![b'\n'; 1_000_000];
            read_line::<Request>(&mut &blanks[..]).unwrap_err().kind()
        });
        assert_eq!(kind, std::io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn deeply_nested_lines_are_invalid_data() {
        let kind = on_connection_stack(|| {
            let line = "[".repeat(500_000) + "\n";
            read_line::<Request>(&mut line.as_bytes())
                .unwrap_err()
                .kind()
        });
        assert_eq!(kind, std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn lines_past_the_cap_are_invalid_data_and_not_buffered() {
        let cap = 1024;
        let long = "[".repeat(4 * cap);
        let mut rest = long.as_bytes();
        let err = read_line_capped::<Request>(&mut rest, cap).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(err.get_ref().is_some_and(|e| e.is::<LineTooLong>()));
        assert_eq!(
            long.len() - rest.len(),
            cap + 1,
            "reading stops one byte past the cap"
        );
        // A line of exactly the cap, newline included, still parses.
        let mut line = Vec::new();
        write_line(&mut line, &Request::Shutdown).unwrap();
        assert_eq!(
            read_line_capped::<Request>(&mut &line[..], line.len()).unwrap(),
            Some(Request::Shutdown)
        );
    }

    /// One valid line for each request shape, newline included.
    fn fuzz_seeds() -> Vec<(Request, Vec<u8>)> {
        let requests = [
            Request::Submit {
                client: "ci".into(),
                format: SpecFormat::Toml,
                spec: "name = \"fuzz\"\n[[strategies]]\nkind = \"hcpa\"\n".into(),
            },
            Request::Submit {
                client: "é \\ \"q\"".into(),
                format: SpecFormat::Json,
                spec: "{\"name\":\"fuzz\",\"seeds\":[1,2]}\t".into(),
            },
            Request::Status {
                campaign: Some("0123456789abcdef".into()),
                stale_ms: 5_000,
            },
            Request::Status {
                campaign: None,
                stale_ms: 30_000,
            },
            Request::Results {
                campaign: "abc".into(),
            },
            Request::Cancel {
                campaign: "abc".into(),
            },
            Request::Metrics,
            Request::Shutdown,
        ];
        requests
            .into_iter()
            .map(|req| {
                let mut line = Vec::new();
                write_line(&mut line, &req).unwrap();
                (req, line)
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// A valid request line cut at any byte, with one byte set to any
        /// value (so invalid UTF-8 and stray newlines too), or carrying a
        /// field nested up to thousands of arrays deep, reads as `Ok` or as
        /// an `InvalidData`/`UnexpectedEof` error on the 2 MiB connection
        /// stack — never a panic. A cut reads back the request once only
        /// the newline is gone, nothing at byte 0, and an error in between;
        /// every request read back from a cut or a nest is the original.
        #[test]
        fn damaged_request_lines_read_as_ok_or_err(
            which in 0usize..8,
            at in 0.0f64..1.0,
            kind in 0u32..3,
            value in 0u32..256,
            depth in 1usize..4000,
        ) {
            let (req, line) = fuzz_seeds().swap_remove(which);
            let k = (at * line.len() as f64) as usize;
            let damaged = match kind {
                0 => line[..k].to_vec(),
                1 => {
                    let mut damaged = line.clone();
                    damaged[k] = value as u8;
                    damaged
                }
                _ => {
                    // `{"x":[[…]],` + the rest of the object.
                    let mut damaged = b"{\"x\":".to_vec();
                    damaged.extend(std::iter::repeat_n(b'[', depth));
                    damaged.extend(std::iter::repeat_n(b']', depth));
                    damaged.push(b',');
                    damaged.extend_from_slice(&line[1..]);
                    damaged
                }
            };
            let read = on_connection_stack(move || read_line::<Request>(&mut &damaged[..]));
            match read {
                Ok(None) if kind == 0 => prop_assert_eq!(k, 0),
                Ok(Some(back)) if kind != 1 => {
                    prop_assert_eq!(back, req);
                    prop_assert!(kind == 2 || k >= line.len() - 1);
                }
                Ok(_) => prop_assert!(kind == 1),
                Err(e) => {
                    prop_assert!(
                        matches!(
                            e.kind(),
                            std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                        ),
                        "kind {kind} at byte {k}: {e}"
                    );
                    prop_assert!(kind != 0 || (k > 0 && k < line.len() - 1));
                }
            }
        }
    }
}
