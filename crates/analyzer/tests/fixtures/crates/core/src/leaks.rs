//! redaction true positives: raw payload reaching a log sink without a
//! redaction/summary step — once via a tainted binding, once via a direct
//! source expression, once through a derived intra-crate carrier, once
//! from the capture decoder the loader calls, and twice from inside a
//! decoder's sink closure: handed straight to the HAR decoder, and through
//! a helper that forwards its own sink to the capture decoder.

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

fn trace_each_request(text: &str, log: &mut SalvageLog, rec: &mut LocalRecorder, ctl: &Ctl) {
    let _ = har_to_exchanges_salvage_ctl(text, log, rec, ctl, |exchange| {
        diffaudit_obs::debug("request", &[diffaudit_obs::field("request", format!("{:?}", exchange.request))]);
    });
}

fn decode_into(bytes: &[u8], keys: &KeyLog, sink: &mut dyn FnMut(Exchange)) -> usize {
    decode_auto_salvage_ctl(bytes, keys, log, rec, ctl, sink).map_or(0, |trace| trace.flow_count)
}

fn trace_each_captured(bytes: &[u8], keys: &KeyLog) {
    decode_into(bytes, keys, &mut |captured| {
        let request = captured.request;
        diffaudit_obs::info("captured", &[diffaudit_obs::field("request", format!("{:?}", request))]);
    });
}
