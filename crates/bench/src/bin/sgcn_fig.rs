//! Renders the SGCN paper's evaluation: `sgcn_fig <id>` prints one table
//! or figure of `sgcn_bench::FIGURES` with its expected shape, and
//! `sgcn_fig all` prints the whole suite (a minute or two at paper scale;
//! set `SGCN_QUICK=1` for a smoke run). A missing or unknown id exits
//! non-zero and lists every valid id.

use sgcn_bench::{banner, experiment_config, figure, quick_mode, run_suite, selected_datasets};

fn main() {
    let arg = std::env::args().nth(1);
    let cfg = experiment_config();
    let datasets = selected_datasets();
    match arg.as_deref() {
        Some("all") => {
            banner("all experiments");
            let t0 = std::time::Instant::now();
            print!("{}", run_suite(&cfg, &datasets, quick_mode()));
            println!("total elapsed: {:.1}s", t0.elapsed().as_secs_f64());
        }
        Some(id) => match figure(id) {
            Ok(fig) => {
                banner(fig.title);
                print!("{}", (fig.run)(&cfg, &datasets, quick_mode()));
                if !fig.note.is_empty() {
                    println!("{}", fig.note);
                }
            }
            Err(e) => fail(&e),
        },
        None => fail(&sgcn_bench::usage()),
    }
}

fn fail(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}
