//! `qfsh` — the query-flocks shell. See [`qf_cli`] for the command set.

use std::io::{BufRead, Write};

use qf_cli::Session;

/// Print a command's output, or its error and exit with `code`.
fn finish(outcome: Result<String, String>, code: i32) {
    match outcome {
        Ok(out) => println!("{out}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(code);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // Server modes are top-level subcommands with flags of their own. A
    // server that cannot start exits 2; a failed client request exits 1.
    type Mode = fn(&[String]) -> Result<String, String>;
    let mode: Option<(Mode, i32)> = match args.first().map(String::as_str) {
        Some("serve") => Some((qf_cli::serve_main, 2)),
        Some("shard") => Some((qf_cli::shard_main, 2)),
        Some("client") => Some((qf_cli::client_main, 1)),
        _ => None,
    };
    if let Some((run, code)) = mode {
        return finish(run(&args[1..]), code);
    }

    // Leading flags set resource limits and run modes for every
    // evaluation:
    //   qfsh --timeout 5s --max-rows 1m --mem-budget 256m --threads 4 \
    //        --spill-dir /tmp/qf --resume run1 --report json \
    //        --io-faults seed=7 [command…]
    let mut session = Session::new();
    let first = match session.apply_flags(&args) {
        Ok(first) => first,
        Err(e) => return finish(Err(e), 2),
    };

    // Non-interactive: execute arguments joined as one command, then exit
    // (`qfsh gen baskets` etc. for scripting).
    if first < args.len() {
        return finish(session.execute_line(&args[first..].join(" ")), 1);
    }

    println!("qfsh — query flocks shell (type `help`)");
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    loop {
        print!("qf> ");
        stdout.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        match session.execute_line(&line) {
            Ok(out) => {
                if !out.is_empty() {
                    println!("{out}");
                }
            }
            Err(e) if e == "quit" => break,
            Err(e) => println!("error: {e}"),
        }
    }
}
