(** Message envelopes delivered by the total-order broadcast. *)

type 'a t = {
  seq : int;  (** global total-order sequence number *)
  sender : int;
  sent_at : float;  (** virtual send time *)
  payload : 'a;
}
