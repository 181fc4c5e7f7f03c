//! std-only HTTP/1.1 front end over `TcpListener`.
//!
//! One serial accept loop, one request per connection (`Connection:
//! close`) — leak-proof by construction: no per-connection threads to
//! orphan, and shutdown unblocks the accept loop with a self-connect. Every
//! accepted stream reads and writes under [`IO_TIMEOUT`] and its request
//! head is read through a [`MAX_HEAD`] window, so a client that stalls or
//! never ends a line holds the loop for a bounded time and memory.
//!
//! Routes:
//!
//! | method | path                  | action                              |
//! |--------|-----------------------|-------------------------------------|
//! | POST   | `/jobs`               | submit `{tenant, weight?, config}`  |
//! | GET    | `/jobs/:id`           | status                              |
//! | GET    | `/jobs/:id/metrics`   | per-cycle JSONL (chunked)           |
//! | POST   | `/jobs/:id/preempt`   | checkpoint and park                 |
//! | POST   | `/jobs/:id/resume`    | re-queue, optional `{nranks,threads}` |
//! | GET    | `/stats`              | service counters                    |

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::config::JobConfig;
use crate::json::{obj, parse, Json};
use crate::service::{JobView, Service};

/// Longest request head (request line and headers) the server reads.
const MAX_HEAD: usize = 8 * 1024;
const MAX_BODY: usize = 64 * 1024;
/// Longest a read or write on an accepted stream may block.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running HTTP front end bound to a local port.
pub struct Server {
    port: u16,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `127.0.0.1:port` (0 picks an ephemeral port) and starts the
    /// accept loop on its own thread.
    pub fn start(service: Arc<Service>, port: u16) -> io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let port = listener.local_addr()?.port();
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(stream) = stream {
                    // Serve errors surface to the client as 4xx/5xx; a
                    // torn connection is the client's problem.
                    let _ = handle_connection(stream, &service);
                }
            }
        });
        Ok(Self {
            port,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Stops the accept loop (self-connecting to unblock it) and joins
    /// the server thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(("127.0.0.1", self.port));
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.handle.is_some() {
            self.stop();
        }
    }
}

struct Request {
    method: String,
    path: String,
    body: Vec<u8>,
}

fn handle_connection(stream: TcpStream, service: &Service) -> io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let req = match read_request(&mut reader) {
        Ok(req) => req,
        Err(e) => return respond_json(&stream, 400, &obj(vec![("error", Json::Str(e))]).render()),
    };
    route(&stream, service, &req)
}

fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, String> {
    // The request line and headers share one window one byte past the
    // limit: a line that never ends stops there instead of buffering on.
    let mut head = reader.by_ref().take(MAX_HEAD as u64 + 1);
    let mut read_line = |line: &mut String| -> Result<(), String> {
        head.read_line(line)
            .map_err(|e| format!("read error: {e}"))?;
        match head.limit() {
            0 => Err("request head too long".into()),
            _ => Ok(()),
        }
    };
    let mut line = String::new();
    read_line(&mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts.next().ok_or("empty request line")?.to_string();
    let path = parts.next().ok_or("missing path")?.to_string();
    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        read_line(&mut h)?;
        let h = h.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "bad content-length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err("body too large".into());
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| format!("short body: {e}"))?;
    Ok(Request { method, path, body })
}

fn route(stream: &TcpStream, service: &Service, req: &Request) -> io::Result<()> {
    let segs: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["jobs"]) => post_job(stream, service, &req.body),
        ("GET", ["jobs", id]) => match parse_id(id).and_then(|id| service.job(id)) {
            Some(v) => respond_json(stream, 200, &job_json(&v).render()),
            None => not_found(stream),
        },
        ("GET", ["jobs", id, "metrics"]) => {
            match parse_id(id).and_then(|id| service.metrics_jsonl(id)) {
                Some(jsonl) => respond_chunked(stream, "application/jsonl", &jsonl),
                None => not_found(stream),
            }
        }
        ("POST", ["jobs", id, "preempt"]) => match parse_id(id) {
            Some(id) => match service.preempt(id) {
                Ok(()) => respond_json(stream, 200, &obj(vec![("ok", Json::Bool(true))]).render()),
                Err(e) => respond_json(stream, 409, &obj(vec![("error", Json::Str(e))]).render()),
            },
            None => not_found(stream),
        },
        ("POST", ["jobs", id, "resume"]) => match parse_id(id) {
            Some(id) => post_resume(stream, service, id, &req.body),
            None => not_found(stream),
        },
        ("GET", ["stats"]) => respond_json(stream, 200, &stats_json(service).render()),
        _ => {
            let body = obj(vec![("error", Json::Str("no such route".into()))]).render();
            match allowed_methods(&segs) {
                [] => respond_json(stream, 404, &body),
                allow => {
                    let allow = format!("Allow: {}\r\n", allow.join(", "));
                    respond(stream, 405, "application/json", &allow, body.as_bytes())
                }
            }
        }
    }
}

/// The methods `route` answers the path `segs` under: empty for a path no
/// route has.
fn allowed_methods(segs: &[&str]) -> &'static [&'static str] {
    match segs {
        ["jobs"] | ["jobs", _, "preempt" | "resume"] => &["POST"],
        ["jobs", _] | ["jobs", _, "metrics"] | ["stats"] => &["GET"],
        _ => &[],
    }
}

fn parse_id(s: &str) -> Option<u64> {
    s.parse().ok()
}

fn post_job(stream: &TcpStream, service: &Service, body: &[u8]) -> io::Result<()> {
    let envelope = std::str::from_utf8(body)
        .map_err(|_| "body is not utf-8".to_string())
        .and_then(parse)
        .and_then(|v| {
            let tenant = v
                .get("tenant")
                .and_then(|t| t.as_str())
                .filter(|t| !t.is_empty() && t.len() <= 64)
                .ok_or("missing tenant")?
                .to_string();
            let weight = v.get("weight").and_then(|w| w.as_u64());
            Ok((tenant, weight, v))
        });
    let (tenant, weight, v) = match envelope {
        Ok(t) => t,
        Err(e) => return respond_json(stream, 400, &obj(vec![("error", Json::Str(e))]).render()),
    };
    // Config rejections render the structured body (`code`, and for an
    // unknown physics name the requested/registered roster).
    let config =
        match JobConfig::from_json(v.get("config").unwrap_or(&Json::Obj(Default::default()))) {
            Ok(c) => c,
            Err(e) => return respond_json(stream, 400, &e.to_json().render()),
        };
    if let Some(w) = weight {
        service.set_tenant_weight(&tenant, w);
    }
    match service.submit(&tenant, config) {
        Ok((id, key, cached)) => respond_json(
            stream,
            201,
            &obj(vec![
                ("id", Json::Num(id as f64)),
                ("cache_key", Json::Str(format!("{key:016x}"))),
                ("cached", Json::Bool(cached)),
            ])
            .render(),
        ),
        Err(e) => respond_json(stream, 400, &obj(vec![("error", Json::Str(e))]).render()),
    }
}

fn post_resume(stream: &TcpStream, service: &Service, id: u64, body: &[u8]) -> io::Result<()> {
    let geometry = if body.is_empty() {
        Ok(None)
    } else {
        std::str::from_utf8(body)
            .map_err(|_| "body is not utf-8".to_string())
            .and_then(parse)
            .and_then(|v| match (v.get("nranks"), v.get("threads")) {
                (None, None) => Ok(None),
                (r, t) => {
                    let nranks = r
                        .and_then(|x| x.as_u64())
                        .ok_or("nranks must be an integer")?;
                    let threads = t
                        .and_then(|x| x.as_u64())
                        .ok_or("threads must be an integer")?;
                    Ok(Some((nranks as usize, threads as usize)))
                }
            })
    };
    match geometry {
        Err(e) => respond_json(stream, 400, &obj(vec![("error", Json::Str(e))]).render()),
        Ok(geom) => match service.resume(id, geom) {
            Ok(()) => respond_json(stream, 200, &obj(vec![("ok", Json::Bool(true))]).render()),
            Err(e) => respond_json(stream, 409, &obj(vec![("error", Json::Str(e))]).render()),
        },
    }
}

fn job_json(v: &JobView) -> Json {
    let mut fields = vec![
        ("id", Json::Num(v.id as f64)),
        ("tenant", Json::Str(v.tenant.clone())),
        ("state", Json::Str(v.state.name().to_string())),
        ("cached", Json::Bool(v.cached)),
        ("cycles_done", Json::Num(v.cycles_done as f64)),
        ("cycles_executed", Json::Num(v.cycles_executed as f64)),
        ("config", v.config.to_json()),
    ];
    if v.recoveries > 0 {
        fields.push(("recoveries", Json::Num(v.recoveries as f64)));
    }
    if let Some(r) = &v.result {
        fields.push((
            "result",
            obj(vec![
                ("fingerprint", Json::Str(format!("{:016x}", r.fingerprint))),
                ("time", Json::Num(r.time)),
                ("dt", Json::Num(r.dt)),
            ]),
        ));
    }
    if let Some(e) = &v.error {
        fields.push(("error", Json::Str(e.clone())));
    }
    if let Some(t) = v.turnaround {
        fields.push(("turnaround_s", Json::Num(t.as_secs_f64())));
    }
    obj(fields)
}

fn stats_json(service: &Service) -> Json {
    let s = service.stats();
    obj(vec![
        ("submitted", Json::Num(s.submitted as f64)),
        ("done", Json::Num(s.done as f64)),
        ("failed", Json::Num(s.failed as f64)),
        ("degraded", Json::Num(s.degraded as f64)),
        ("failures_detected", Json::Num(s.failures_detected as f64)),
        ("recoveries", Json::Num(s.recoveries as f64)),
        ("active", Json::Num(s.active as f64)),
        ("cache_hits", Json::Num(s.cache_hits as f64)),
        ("cache_misses", Json::Num(s.cache_misses as f64)),
        ("cache_entries", Json::Num(s.cache_entries as f64)),
        (
            "tenants",
            Json::Arr(
                s.tenants
                    .iter()
                    .map(|(name, n, max, min)| {
                        obj(vec![
                            ("tenant", Json::Str(name.clone())),
                            ("completed", Json::Num(*n as f64)),
                            ("turnaround_max_s", Json::Num(*max)),
                            ("turnaround_min_s", Json::Num(*min)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

const fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        _ => "Internal Server Error",
    }
}

/// Writes a whole response; `headers` are extra header lines, each ending
/// in CRLF.
fn respond(
    mut stream: &TcpStream,
    code: u16,
    ctype: &str,
    headers: &str,
    body: &[u8],
) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {code} {}\r\nContent-Type: {ctype}\r\nContent-Length: {}\r\n{headers}Connection: close\r\n\r\n",
        status_text(code),
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()
}

fn respond_json(stream: &TcpStream, code: u16, body: &str) -> io::Result<()> {
    respond(stream, code, "application/json", "", body.as_bytes())
}

/// Streams `body` with chunked transfer encoding, one chunk per line —
/// the JSONL metrics stream arrives incrementally parseable.
fn respond_chunked(mut stream: &TcpStream, ctype: &str, body: &str) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 200 OK\r\nContent-Type: {ctype}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
    )?;
    for line in body.lines() {
        write!(stream, "{:x}\r\n{line}\n\r\n", line.len() + 1)?;
    }
    write!(stream, "0\r\n\r\n")?;
    stream.flush()
}

fn not_found(stream: &TcpStream) -> io::Result<()> {
    respond_json(
        stream,
        404,
        &obj(vec![("error", Json::Str("not found".into()))]).render(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::time::Duration;

    /// Minimal HTTP/1.1 client: one request, reads to EOF, decodes
    /// chunked bodies.
    fn http(port: u16, method: &str, path: &str, body: &str) -> (u16, String) {
        let (code, _, body) = request(port, method, path, body);
        (code, body)
    }

    /// [`http`] with the response's header lines.
    fn request(port: u16, method: &str, path: &str, body: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).unwrap();
        let text = String::from_utf8(raw).unwrap();
        let (head, payload) = text.split_once("\r\n\r\n").unwrap();
        let code: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
        let body = if head
            .to_ascii_lowercase()
            .contains("transfer-encoding: chunked")
        {
            decode_chunked(payload)
        } else {
            payload.to_string()
        };
        (code, head.to_string(), body)
    }

    fn decode_chunked(payload: &str) -> String {
        let mut out = String::new();
        let mut rest = payload;
        loop {
            let (size_line, tail) = rest.split_once("\r\n").unwrap();
            let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
            if size == 0 {
                return out;
            }
            out.push_str(&tail[..size]);
            rest = &tail[size + 2..]; // skip chunk CRLF
        }
    }

    fn boot() -> (Server, u16) {
        let service = Arc::new(Service::start(ServiceConfig {
            runners: 1,
            budget_cycles: 4,
            tenant_weights: Vec::new(),
        }));
        let server = Server::start(service, 0).unwrap();
        let port = server.port();
        (server, port)
    }

    #[test]
    fn end_to_end_submit_status_metrics_stats() {
        let (server, port) = boot();
        let (code, body) = http(
            port,
            "POST",
            "/jobs",
            r#"{"tenant":"acme","config":{"cycles":5}}"#,
        );
        assert_eq!(code, 201, "{body}");
        let v = parse(&body).unwrap();
        assert_eq!(v.get("id").unwrap().as_u64(), Some(0));
        assert_eq!(v.get("cached"), Some(&Json::Bool(false)));

        // Poll status until done.
        let deadline = std::time::Instant::now() + Duration::from_secs(120);
        let fp = loop {
            let (code, body) = http(port, "GET", "/jobs/0", "");
            assert_eq!(code, 200);
            let v = parse(&body).unwrap();
            match v.get("state").unwrap().as_str().unwrap() {
                "done" => {
                    break v
                        .get("result")
                        .unwrap()
                        .get("fingerprint")
                        .unwrap()
                        .as_str()
                        .unwrap()
                        .to_string()
                }
                "failed" => panic!("job failed: {body}"),
                _ => {}
            }
            assert!(std::time::Instant::now() < deadline, "job did not finish");
            std::thread::sleep(Duration::from_millis(20));
        };
        assert_eq!(fp.len(), 16);

        // Chunked metrics: one valid JSON object per cycle.
        let (code, jsonl) = http(port, "GET", "/jobs/0/metrics", "");
        assert_eq!(code, 200);
        assert_eq!(crate::json::parse_lines(&jsonl).unwrap().len(), 5);

        // A served job records no trace, so there is no route to one: the
        // router's fallback answers it.
        let (code, body) = http(port, "GET", "/jobs/0/trace", "");
        assert_eq!(
            (code, body.contains("no such route")),
            (404, true),
            "{body}"
        );

        // Duplicate config from another tenant: served from cache.
        let (code, body) = http(
            port,
            "POST",
            "/jobs",
            r#"{"tenant":"globex","config":{"cycles":5,"nranks":2}}"#,
        );
        assert_eq!(code, 201);
        let v = parse(&body).unwrap();
        assert_eq!(v.get("cached"), Some(&Json::Bool(true)));
        let (_, status) = http(port, "GET", "/jobs/1", "");
        let v = parse(&status).unwrap();
        assert_eq!(v.get("cycles_executed").unwrap().as_u64(), Some(0));
        assert_eq!(
            v.get("result")
                .unwrap()
                .get("fingerprint")
                .unwrap()
                .as_str(),
            Some(fp.as_str())
        );

        let (code, stats) = http(port, "GET", "/stats", "");
        assert_eq!(code, 200);
        let v = parse(&stats).unwrap();
        assert_eq!(v.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("submitted").unwrap().as_u64(), Some(2));

        server.shutdown();
    }

    #[test]
    fn preempt_and_resume_over_http() {
        let service = Arc::new(Service::start(ServiceConfig {
            runners: 1,
            budget_cycles: 1,
            tenant_weights: Vec::new(),
        }));
        let server = Server::start(Arc::clone(&service), 0).unwrap();
        let port = server.port();
        let (code, _) = http(
            port,
            "POST",
            "/jobs",
            r#"{"tenant":"acme","config":{"cycles":6,"nranks":2}}"#,
        );
        assert_eq!(code, 201);
        let (code, body) = http(port, "POST", "/jobs/0/preempt", "");
        assert_eq!(code, 200, "{body}");
        service
            .wait_for(0, Duration::from_secs(120), |v| {
                v.state == crate::service::JobState::Preempted
            })
            .unwrap();
        // Resume on a different geometry.
        let (code, body) = http(
            port,
            "POST",
            "/jobs/0/resume",
            r#"{"nranks":3,"threads":2}"#,
        );
        assert_eq!(code, 200, "{body}");
        let v = service.wait_done(0, Duration::from_secs(120)).unwrap();
        assert_eq!(v.config.nranks, 3);
        assert!(v.result.is_some());
        // Resuming a done job conflicts.
        let (code, _) = http(port, "POST", "/jobs/0/resume", "");
        assert_eq!(code, 409);
        server.shutdown();
    }

    /// A refused resume geometry leaves the job as it was: its config
    /// reads the same, and a plain resume then completes it.
    #[test]
    fn a_refused_resume_geometry_leaves_the_job_unchanged() {
        let service = Arc::new(Service::start(ServiceConfig {
            runners: 1,
            budget_cycles: 1,
            tenant_weights: Vec::new(),
        }));
        let server = Server::start(Arc::clone(&service), 0).unwrap();
        let port = server.port();
        let (code, _) = http(
            port,
            "POST",
            "/jobs",
            r#"{"tenant":"acme","config":{"cycles":6,"nranks":2}}"#,
        );
        assert_eq!(code, 201);
        let (code, body) = http(port, "POST", "/jobs/0/preempt", "");
        assert_eq!(code, 200, "{body}");
        service
            .wait_for(0, Duration::from_secs(120), |v| {
                v.state == crate::service::JobState::Preempted
            })
            .unwrap();
        let config = || {
            let (_, body) = http(port, "GET", "/jobs/0", "");
            parse(&body).unwrap().get("config").cloned()
        };
        let before = config();
        let (code, body) = http(
            port,
            "POST",
            "/jobs/0/resume",
            r#"{"nranks":0,"threads":1}"#,
        );
        assert_eq!(code, 409, "{body}");
        let (code, body) = http(port, "POST", "/jobs/0/resume", "");
        assert_eq!(code, 200, "{body}");
        let v = service.wait_done(0, Duration::from_secs(60)).unwrap();
        assert_eq!(v.cycles_done, 6);
        assert_eq!(config(), before, "the refused geometry stuck");
        server.shutdown();
    }

    #[test]
    fn unknown_physics_gets_a_structured_4xx() {
        let (server, port) = boot();
        let (code, body) = http(
            port,
            "POST",
            "/jobs",
            r#"{"tenant":"acme","config":{"physics":"mhd"}}"#,
        );
        assert_eq!(code, 400, "{body}");
        let v = parse(&body).unwrap();
        assert_eq!(v.get("code").unwrap().as_str(), Some("unknown_physics"));
        assert_eq!(v.get("requested").unwrap().as_str(), Some("mhd"));
        let Some(Json::Arr(registered)) = v.get("registered") else {
            panic!("missing registered roster: {body}");
        };
        let names: Vec<&str> = registered.iter().filter_map(|n| n.as_str()).collect();
        assert_eq!(names, vec!["advect", "burgers", "diffusion", "euler"]);
        // A registered name passes the same gate.
        let (code, body) = http(
            port,
            "POST",
            "/jobs",
            r#"{"tenant":"acme","config":{"physics":"diffusion","cycles":1,"mesh_cells":16,"dim":3}}"#,
        );
        assert_eq!(code, 201, "{body}");
        server.shutdown();
    }

    #[test]
    fn malformed_requests_get_clean_errors() {
        let (server, port) = boot();
        let (code, _) = http(port, "POST", "/jobs", "not json");
        assert_eq!(code, 400);
        let (code, _) = http(port, "POST", "/jobs", r#"{"config":{}}"#);
        assert_eq!(code, 400, "missing tenant");
        let (code, _) = http(
            port,
            "POST",
            "/jobs",
            r#"{"tenant":"a","config":{"cycles":0}}"#,
        );
        assert_eq!(code, 400, "invalid config");
        let (code, body) = http(
            port,
            "POST",
            "/jobs",
            r#"{"tenant":"a","config":{"block_cells":4,"cycles":2,"refine_tol":0.01}}"#,
        );
        assert_eq!(code, 400, "blocks thinner than the ghost width: {body}");
        assert!(body.contains(r#""code":"invalid_config""#), "{body}");
        let (code, _) = http(port, "GET", "/jobs/999", "");
        assert_eq!(code, 404);
        let (code, _) = http(port, "GET", "/nope", "");
        assert_eq!(code, 404);
        let (code, _) = http(port, "GET", "/jobs/0/nope", "");
        assert_eq!(code, 404, "no route under any method");
        let (code, head, _) = request(port, "DELETE", "/jobs/0", "");
        assert_eq!(code, 405);
        assert!(head.contains("\r\nAllow: GET\r\n"), "{head}");
        let (code, head, _) = request(port, "DELETE", "/stats", "");
        assert_eq!(code, 405);
        assert!(head.contains("\r\nAllow: GET\r\n"), "{head}");
        let (code, head, _) = request(port, "GET", "/jobs/0/preempt", "");
        assert_eq!(code, 405);
        assert!(head.contains("\r\nAllow: POST\r\n"), "{head}");
        server.shutdown();
    }

    /// Runs `f` on its own thread and waits at most 30 s for its result, so
    /// a hang fails the test instead of stalling the suite.
    fn within_30s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || tx.send(f()));
        let out = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("finished in time");
        worker
            .join()
            .expect("worker thread")
            .expect("receiver alive");
        out
    }

    #[test]
    fn idle_client_blocks_neither_other_clients_nor_shutdown() {
        let (server, port) = boot();
        // Connects and never sends a byte.
        let idle = TcpStream::connect(("127.0.0.1", port)).unwrap();
        let (code, _) = within_30s(move || http(port, "GET", "/stats", ""));
        assert_eq!(code, 200);
        within_30s(move || server.shutdown());
        drop(idle);
    }

    #[test]
    fn unterminated_header_line_gets_a_400() {
        let (server, port) = boot();
        let mut stream = TcpStream::connect(("127.0.0.1", port)).unwrap();
        // Gives up (and hangs up, freeing the server) rather than waiting
        // forever for a server that waits for the newline.
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let line = "a".repeat(16 * 1024);
        write!(stream, "GET /stats HTTP/1.1\r\nX-Long: {line}").unwrap();
        let mut status = [0u8; 12];
        stream.read_exact(&mut status).expect("a response");
        assert_eq!(&status, b"HTTP/1.1 400");
        server.shutdown();
    }

    #[test]
    fn server_shutdown_joins_accept_thread() {
        // Pre-warm the process-lifetime kernel-launch pool so its
        // persistent workers are part of the baseline count.
        vibe_core::exec::pool::global().run(4, 2, &|_| {});
        let before = count_own_threads();
        let (server, port) = boot();
        let (code, _) = http(port, "GET", "/stats", "");
        assert_eq!(code, 200);
        server.shutdown();
        // Generous deadline: sibling tests spawn transient threads.
        for _ in 0..3000 {
            if count_own_threads() <= before {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("server thread leaked");
    }

    fn count_own_threads() -> usize {
        std::fs::read_dir("/proc/self/task").map_or(1, |d| d.count())
    }
}
