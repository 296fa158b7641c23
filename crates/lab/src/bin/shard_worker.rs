//! Dedicated shard-server binary: `NCG_SERVE=ADDR shard_worker` binds
//! `ADDR`, announces the bound address on stdout
//! ([`ncg_lab::transport::ANNOUNCE`], so `ADDR` may use port 0), and takes
//! shard assignments from a coordinator forever. `NCG_FAULT` arms the fault
//! table as usual. All behaviour lives in
//! [`ncg_lab::transport::serve_main`]; the fault matrix starts this binary
//! through [`ncg_lab::supervisor::LocalWorkers`], and an embedder that
//! prefers a separate executable over re-entering its own `main` can too.

fn main() {
    let Ok(bind) = std::env::var("NCG_SERVE") else {
        eprintln!("shard server: set NCG_SERVE=ADDR to the address to serve on");
        std::process::exit(2);
    };
    std::process::exit(ncg_lab::transport::serve_main(&bind));
}
