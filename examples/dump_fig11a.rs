//! Dumps the fig11a JSON under fixed quick/serial options (golden capture).

use signaling::experiment::ExperimentOptions;
use signaling::registry::Registry;
use signaling::report::render_json;
use signaling::ExecutionPolicy;

fn main() {
    let options = ExperimentOptions::quick().with_execution(ExecutionPolicy::Serial);
    let out = Registry::with_builtins()
        .run("fig11a", &options)
        .expect("fig11a is a built-in experiment");
    let fig = out.as_figure().expect("fig11a is a figure");
    println!("{}", render_json(fig));
}
