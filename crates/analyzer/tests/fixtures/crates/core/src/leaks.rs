//! redaction true positives: raw payload reaching a log sink without a
//! redaction/summary step — once via a tainted binding, once via a direct
//! source expression, once through a derived intra-crate carrier, and once
//! from the capture decoder the loader calls.

fn log_payload(text: &str) {
    let exchanges = har_to_exchanges(text);
    diffaudit_obs::warn(
        "suspicious payload",
        &[diffaudit_obs::field("body", format!("{:?}", exchanges))],
    );
}

fn dump_request(req: &HttpRequest) {
    eprintln!("request body: {:?}", req.body);
}

fn reload(text: &str) -> Vec<Exchange> {
    har_to_exchanges(text)
}

fn trace_reloaded(text: &str) {
    let batch = reload(text);
    diffaudit_obs::debug("batch", &[diffaudit_obs::field("first", format!("{:?}", batch))]);
}

fn log_decoded(bytes: &[u8], keys: &KeyLog, log: &mut SalvageLog, ctl: &Ctl) {
    let decoded = decode_auto_salvage_ctl(bytes, keys, log, ctl);
    diffaudit_obs::info("decoded capture", &[diffaudit_obs::field("trace", format!("{:?}", decoded))]);
}
