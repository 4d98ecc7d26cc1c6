//! The `moss-serve` daemon: load a checkpoint, bind a socket, serve
//! embeddings until killed.
//!
//! ```text
//! moss-serve --checkpoint model.mossckp [--listen 127.0.0.1:7744]
//! moss-serve --demo                     # deterministic demo weights
//! ```

use std::process::ExitCode;

use moss::NetlistEmbedder;
use moss_serve::{ServeConfig, Server};

fn usage() -> ExitCode {
    eprintln!(
        "usage: moss-serve (--checkpoint PATH | --demo) [--listen ADDR]\n\
         \n\
         options:\n\
         \x20 --checkpoint PATH   MOSSCKP2 checkpoint to serve\n\
         \x20 --demo              serve deterministic demo weights instead\n\
         \x20 --listen ADDR       bind address (default 127.0.0.1:7744)\n\
         \n\
         protocol ops: EMBED, STATS, HEALTH (liveness JSON), RELOAD (validated\n\
         checkpoint hot-swap; empty payload reloads MOSS_SERVE_CKPT, which\n\
         defaults to the --checkpoint path)\n\
         \n\
         tuning (environment): MOSS_SERVE_CACHE_CAP, MOSS_SERVE_READ_TIMEOUT_MS,\n\
         MOSS_SERVE_CKPT, MOSS_SERVE_WATCH_MS (mtime-poll hot-reload, 0 = off),\n\
         MOSS_SERVE_RESPAWN_BUDGET"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut checkpoint: Option<String> = None;
    let mut demo = false;
    let mut listen = "127.0.0.1:7744".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--checkpoint" => match args.next() {
                Some(p) => checkpoint = Some(p),
                None => return usage(),
            },
            "--demo" => demo = true,
            "--listen" => match args.next() {
                Some(a) => listen = a,
                None => return usage(),
            },
            _ => return usage(),
        }
    }

    let mut ckpt_for_reload: Option<String> = None;
    let embedder = match (checkpoint, demo) {
        (Some(path), false) => match NetlistEmbedder::from_checkpoint_file(&path) {
            Ok(e) => {
                ckpt_for_reload = Some(path);
                e
            }
            Err(e) => {
                eprintln!("moss-serve: cannot load {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        (None, true) => {
            let dir = std::env::temp_dir().join(format!("moss-serve-demo-{}", std::process::id()));
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("moss-serve: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let path = dir.join("demo.mossckp");
            if let Err(e) = moss_serve::write_demo_checkpoint(&path) {
                eprintln!("moss-serve: cannot write demo checkpoint: {e}");
                return ExitCode::FAILURE;
            }
            match NetlistEmbedder::from_checkpoint_file(&path) {
                Ok(e) => e,
                Err(e) => {
                    eprintln!("moss-serve: cannot load demo checkpoint: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        _ => return usage(),
    };

    let _obs = moss_obs::session();
    let mut config = ServeConfig::from_env();
    // An empty-payload RELOAD (and the mtime watcher) should "reload the
    // checkpoint I was started on" unless MOSS_SERVE_CKPT says otherwise.
    if config.ckpt_path.is_none() {
        config.ckpt_path = ckpt_for_reload.map(std::path::PathBuf::from);
    }
    let server = match Server::start(&listen, embedder, config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("moss-serve: cannot bind {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("moss-serve: listening on {}", server.addr());
    // Serve until killed; the accept and connection threads do all the
    // work and `server` must stay alive (its Drop shuts them down).
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
