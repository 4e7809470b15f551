//! Async byte-stream traits plus the extension methods `httpwire` uses
//! (`read`, `read_buf`, `read_to_end`, `write_all`, `shutdown`). Poll
//! signatures follow the futures-rs shape (`&mut [u8]` buffers), plus a
//! tokio-shaped `read_buf` that appends to a [`BytesMut`]; the tokio facade
//! re-exports these under `tokio::io`.

use bytes::BytesMut;
use std::future::Future;
use std::io;
use std::pin::Pin;
use std::task::{Context, Poll};

/// Non-blocking byte source.
pub trait AsyncRead {
    /// Read into `buf`, returning how many bytes were filled (0 = EOF).
    fn poll_read(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut [u8],
    ) -> Poll<io::Result<usize>>;

    /// Append the bytes that are ready to the end of `buf`, returning how
    /// many were added (0 = EOF).
    fn poll_read_buf(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &mut BytesMut,
    ) -> Poll<io::Result<usize>>;
}

/// Non-blocking byte sink.
pub trait AsyncWrite {
    /// Write from `buf`, returning how many bytes were accepted.
    fn poll_write(
        self: Pin<&mut Self>,
        cx: &mut Context<'_>,
        buf: &[u8],
    ) -> Poll<io::Result<usize>>;

    /// Flush buffered bytes.
    fn poll_flush(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>>;

    /// Close the write side.
    fn poll_shutdown(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<io::Result<()>>;
}

/// Future returned by [`AsyncReadExt::read`].
pub struct Read<'a, T: ?Sized> {
    io: &'a mut T,
    buf: &'a mut [u8],
}

impl<T: AsyncRead + Unpin + ?Sized> Future for Read<'_, T> {
    type Output = io::Result<usize>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        Pin::new(&mut *this.io).poll_read(cx, this.buf)
    }
}

/// Future returned by [`AsyncReadExt::read_buf`].
pub struct ReadBuf<'a, T: ?Sized> {
    io: &'a mut T,
    buf: &'a mut BytesMut,
}

impl<T: AsyncRead + Unpin + ?Sized> Future for ReadBuf<'_, T> {
    type Output = io::Result<usize>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        Pin::new(&mut *this.io).poll_read_buf(cx, this.buf)
    }
}

/// Future returned by [`AsyncReadExt::read_to_end`].
pub struct ReadToEnd<'a, T: ?Sized> {
    io: &'a mut T,
    out: &'a mut Vec<u8>,
    total: usize,
}

impl<T: AsyncRead + Unpin + ?Sized> Future for ReadToEnd<'_, T> {
    type Output = io::Result<usize>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let mut chunk = [0u8; 4096];
        loop {
            match Pin::new(&mut *this.io).poll_read(cx, &mut chunk) {
                Poll::Ready(Ok(0)) => return Poll::Ready(Ok(this.total)),
                Poll::Ready(Ok(n)) => {
                    this.out.extend_from_slice(&chunk[..n]);
                    this.total += n;
                }
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                Poll::Pending => return Poll::Pending,
            }
        }
    }
}

/// Future returned by [`AsyncWriteExt::write_all`].
pub struct WriteAll<'a, T: ?Sized> {
    io: &'a mut T,
    buf: &'a [u8],
}

impl<T: AsyncWrite + Unpin + ?Sized> Future for WriteAll<'_, T> {
    type Output = io::Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        while !this.buf.is_empty() {
            match Pin::new(&mut *this.io).poll_write(cx, this.buf) {
                Poll::Ready(Ok(0)) => {
                    return Poll::Ready(Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "failed to write whole buffer",
                    )))
                }
                Poll::Ready(Ok(n)) => this.buf = &this.buf[n..],
                Poll::Ready(Err(e)) => return Poll::Ready(Err(e)),
                Poll::Pending => return Poll::Pending,
            }
        }
        Poll::Ready(Ok(()))
    }
}

/// Future returned by [`AsyncWriteExt::flush`].
pub struct Flush<'a, T: ?Sized> {
    io: &'a mut T,
}

impl<T: AsyncWrite + Unpin + ?Sized> Future for Flush<'_, T> {
    type Output = io::Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut *self.get_mut().io).poll_flush(cx)
    }
}

/// Future returned by [`AsyncWriteExt::shutdown`].
pub struct Shutdown<'a, T: ?Sized> {
    io: &'a mut T,
}

impl<T: AsyncWrite + Unpin + ?Sized> Future for Shutdown<'_, T> {
    type Output = io::Result<()>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        Pin::new(&mut *self.get_mut().io).poll_shutdown(cx)
    }
}

/// Awaitable read helpers for any [`AsyncRead`].
pub trait AsyncReadExt: AsyncRead {
    /// Read some bytes into `buf`; resolves to the count (0 = EOF).
    fn read<'a>(&'a mut self, buf: &'a mut [u8]) -> Read<'a, Self>
    where
        Self: Unpin,
    {
        Read { io: self, buf }
    }

    /// Read some bytes and append them to `buf`; resolves to the count
    /// added (0 = EOF). Unlike [`read`](AsyncReadExt::read), the caller
    /// needs no scratch slice.
    fn read_buf<'a>(&'a mut self, buf: &'a mut BytesMut) -> ReadBuf<'a, Self>
    where
        Self: Unpin,
    {
        ReadBuf { io: self, buf }
    }

    /// Read until EOF, appending to `out`; resolves to the bytes added.
    fn read_to_end<'a>(&'a mut self, out: &'a mut Vec<u8>) -> ReadToEnd<'a, Self>
    where
        Self: Unpin,
    {
        ReadToEnd {
            io: self,
            out,
            total: 0,
        }
    }
}

impl<T: AsyncRead + ?Sized> AsyncReadExt for T {}

/// Awaitable write helpers for any [`AsyncWrite`].
pub trait AsyncWriteExt: AsyncWrite {
    /// Write the entire buffer.
    fn write_all<'a>(&'a mut self, buf: &'a [u8]) -> WriteAll<'a, Self>
    where
        Self: Unpin,
    {
        WriteAll { io: self, buf }
    }

    /// Flush the stream.
    fn flush(&mut self) -> Flush<'_, Self>
    where
        Self: Unpin,
    {
        Flush { io: self }
    }

    /// Close the write side.
    fn shutdown(&mut self) -> Shutdown<'_, Self>
    where
        Self: Unpin,
    {
        Shutdown { io: self }
    }
}

impl<T: AsyncWrite + ?Sized> AsyncWriteExt for T {}
