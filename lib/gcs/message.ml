type 'a t = { seq : int; sender : int; sent_at : float; payload : 'a }
