//! par-discipline true positives: blocking I/O, global-registry metric
//! writes, and stream emission inside `par_map*` worker closures — the
//! last one inside a closure that reaches the worker as an argument of the
//! function whose `par_map` calls it.

fn load_all(paths: Vec<String>) -> Vec<String> {
    par_map(4, paths, |_, p| {
        diffaudit_obs::add("files.read", 1);
        std::fs::read_to_string(&p).unwrap_or_default()
    })
}

fn process(items: Vec<u8>) -> Vec<u8> {
    diffaudit_util::par::par_map(2, &items, |i, &x| {
        println!("item {i}");
        x
    })
    .to_vec()
}

fn assemble(items: Vec<u8>, ctl: &Ctl) -> Result<Vec<u8>, Interrupt> {
    par::par_map_ctx_cancel(
        2,
        items,
        ctl,
        || (),
        |(), _, x| {
            diffaudit_obs::add("items.assembled", 1);
            x
        },
        |()| {},
    )
}

fn run_queue(items: Vec<u8>, work: impl Fn(u8) -> u8 + Sync) -> Vec<u8> {
    par_map(2, items, |_, x| work(x))
}

fn count_items(items: Vec<u8>) -> Vec<u8> {
    run_queue(items, |x| {
        diffaudit_obs::add("items.counted", 1);
        x
    })
}
