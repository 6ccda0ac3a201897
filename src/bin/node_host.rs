//! `node-host`: one chain backend as its own OS process.
//!
//! The multi-process deploy mode runs each system under test here, behind
//! a real TCP socket, so chaos faults can kill actual processes and
//! sockets instead of flipping in-memory flags. The supervisor in
//! `hammer-core` spawns this binary, waits for the `LISTENING <port>`
//! handshake on stdout, drives it over `hammer-net`'s length-prefixed
//! JSON-RPC transport, and SIGKILLs/restarts it to realise crash-fault
//! windows.
//!
//! ```text
//! node-host --backend ethereum-sim [--port 0] [--speedup 1000]
//!           [--epoch-offset-ms 0] [--mempool-capacity N] [--stall-sealing]
//! ```
//!
//! * The handshake is printed once the RPC server is bound and every
//!   handler registered: the supervisor's one readiness check. Nothing
//!   else goes to stdout, whose EOF the supervisor reads as our exit.
//! * `--port 0` binds an ephemeral port; restarts are given that port.
//! * `--epoch-offset-ms` seeds the simulation clock at a given *simulated*
//!   time, so a restarted node rejoins the run's timeline instead of
//!   restarting it at zero.
//! * The process exits when stdin reaches EOF — the supervisor holds the
//!   write end, so a dead or dropping supervisor reaps its node even if it
//!   never got to send a kill. No orphans.
//!
//! Beyond the chain RPC surface (`hammer_chain::rpc_adapter::serve_sim`),
//! the host serves the wire table's `INSTALL_FAULTS` on its own network:
//! the driver forwards its resolved fault plan here — in the one JSON
//! form, decoded as strictly as a spec file — so blackhole windows gate
//! this node's ingress (crash windows are realised by the supervisor as
//! SIGKILL; forwarding them too keeps ingress-refusal attribution during
//! the instants before the kill lands). Partition and latency windows
//! arrive with the plan, but nothing reads them today (`hammer_net::fault`
//! module docs).

use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use hammer_chain::client::ChainError;
use hammer_chain::rpc_adapter;
use hammer_core::deploy::{BackendOptions, BackendRegistry};
use hammer_net::{LinkConfig, SimClock, SimNetwork, TcpServerConfig};

struct Args {
    backend: String,
    port: u16,
    speedup: f64,
    epoch_offset: Duration,
    options: BackendOptions,
}

fn usage() -> ! {
    eprintln!(
        "usage: node-host --backend <name> [--port N] [--speedup X] \
         [--epoch-offset-ms N] [--mempool-capacity N] [--stall-sealing]"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        backend: String::new(),
        port: 0,
        speedup: 1000.0,
        epoch_offset: Duration::ZERO,
        options: BackendOptions::default(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |flag: &str| it.next().unwrap_or_else(|| usage_missing(flag));
        match flag.as_str() {
            "--backend" => args.backend = value("--backend"),
            "--port" => args.port = parse(&value("--port"), "--port"),
            "--speedup" => args.speedup = parse(&value("--speedup"), "--speedup"),
            "--epoch-offset-ms" => {
                args.epoch_offset =
                    Duration::from_millis(parse(&value("--epoch-offset-ms"), "--epoch-offset-ms"))
            }
            "--mempool-capacity" => {
                args.options.mempool_capacity =
                    Some(parse(&value("--mempool-capacity"), "--mempool-capacity"))
            }
            "--stall-sealing" => args.options.stall_sealing = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("node-host: unknown flag {other:?}");
                usage()
            }
        }
    }
    if args.backend.is_empty() {
        eprintln!("node-host: --backend is required");
        usage()
    }
    args
}

fn usage_missing(flag: &str) -> ! {
    eprintln!("node-host: {flag} requires a value");
    usage()
}

fn parse<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("node-host: invalid value {raw:?} for {flag}");
        usage()
    })
}

fn main() -> ExitCode {
    let args = parse_args();

    // Rejoin the run's simulated timeline at the supervisor-provided
    // offset: a restart must not rewind simulated time.
    let clock = SimClock::with_speedup_from(args.speedup, args.epoch_offset);
    let net = SimNetwork::new(clock.clone(), LinkConfig::lan());
    let deployment = match BackendRegistry::builtin().deploy_on(
        &args.backend,
        &args.options,
        clock,
        net.clone(),
    ) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("node-host: {e}");
            return ExitCode::from(2);
        }
    };

    let rpc = rpc_adapter::serve_sim(Arc::clone(deployment.chain()));
    rpc_adapter::INSTALL_FAULTS.serve(&rpc, &Arc::new(net), |net, plan| {
        let installed = net.try_install_faults(plan);
        installed.map_err(|e| ChainError::protocol(e.to_string()))
    });

    let addr = format!("127.0.0.1:{}", args.port);
    let server = match rpc_adapter::serve_tcp(rpc, &addr, TcpServerConfig::default()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("node-host: bind {addr}: {e}");
            return ExitCode::from(2);
        }
    };

    // Handshake and readiness: bound, every handler registered.
    println!("LISTENING {}", server.local_addr().port());
    let _ = std::io::stdout().flush();

    // Serve until the supervisor closes our stdin (or dies, which closes
    // it too). The supervisor never writes, so this blocks until EOF.
    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin().lock();
    loop {
        match stdin.read(&mut sink) {
            Ok(0) => break,    // EOF: parent is done with us
            Ok(_) => continue, // stray bytes: ignore
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }

    deployment.down();
    server.shutdown_and_join();
    ExitCode::SUCCESS
}
