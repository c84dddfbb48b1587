open Apna_net

let mac ~auth_key pkt =
  String.sub
    (Apna_crypto.Hmac.Sha256.mac ~key:auth_key (Packet.bytes_for_mac pkt))
    0 Apna_header.mac_size

let seal ~auth_key (pkt : Packet.t) =
  { pkt with header = Apna_header.with_mac pkt.header (mac ~auth_key pkt) }

let verify ~auth_key (pkt : Packet.t) =
  Apna_util.Ct.equal pkt.header.mac (mac ~auth_key pkt)

(* A key prepared for repeated verification: HMAC pads expanded once,
   digest buffer reused. One in-flight MAC per value (the prepared HMAC
   context is mutable), which the border router's single-domain burst
   loop respects. *)
type verifier = {
  prepared : Apna_crypto.Hmac.Sha256.prepared;
  digest : Bytes.t;
  key : string;  (** fallback for packets larger than the scratch buffer *)
}

let make_verifier ~auth_key =
  {
    prepared = Apna_crypto.Hmac.Sha256.prepare ~key:auth_key;
    digest = Bytes.create 32;
    key = auth_key;
  }

let verify_in ~scratch v (pkt : Packet.t) =
  if Bytes.length scratch < Packet.wire_size pkt then
    (* Packet larger than the scratch buffer: take the allocating path
       rather than constrain the MTU here. *)
    verify ~auth_key:v.key pkt
  else begin
    let len = Packet.write_for_mac pkt scratch in
    Apna_crypto.Hmac.Sha256.mac_into v.prepared ~src:scratch ~off:0 ~len
      ~out:v.digest ~out_off:0;
    Apna_util.Ct.equal_bytes pkt.header.mac v.digest ~off:0
  end
